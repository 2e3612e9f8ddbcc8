package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"taupsm"
	"taupsm/internal/taubench"
)

//go:embed golden/*.json
var goldenFS embed.FS

// goldenSeed is the seed the committed goldens were generated with. The
// statement-independent parts of a golden (class digests of workloads
// whose text does not depend on the seed, reference timelines) are
// checked at every seed.
const goldenSeed = 1

// classGolden is the expected result of one statement class: the number
// of rows (over all sampled timeslices for a sequenced class) and the
// order-insensitive digest.
type classGolden struct {
	Rows   int64  `json:"rows"`
	Digest string `json:"digest"`
}

// golden is the committed expectation of one workload at goldenSeed.
// What a class entry covers depends on the workload: the result of the
// class's one repeated statement (seq-*, par-*), the full-timeline
// reference its distinct statements are compared with (cold-auto-1d), or
// the fold of the class's results over the prefix (oltp-persist, whose
// Tables are the stored tables at the end of that prefix).
type golden struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	InputDigest string                 `json:"input_digest"`
	Classes     map[string]classGolden `json:"classes"`
	Tables      map[string]string      `json:"tables,omitempty"`
}

func goldenPath(workload string) string {
	return fmt.Sprintf("golden/%s-seed%d.json", workload, goldenSeed)
}

func loadGolden(workload string) (*golden, error) {
	data, err := goldenFS.ReadFile(goldenPath(workload))
	if err != nil {
		return nil, err
	}
	g := &golden{}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(workload), err)
	}
	return g, nil
}

// verifier checks every statement's outcome, outside the timed regions.
// A statement that errors or whose digest mismatches counts as failed;
// a mismatch that belongs to no single statement (a table or input
// digest) counts as one more attempted and failed check.
type verifier struct {
	w    workload
	seed int64
	gold *golden
	// got is what this run observed in the golden's shape; -update-golden
	// writes it out.
	got golden

	attempted, failed int
	notes             []string

	first   map[int]classGolden // seq: the first digest seen per class
	pending []pendingCold       // cold: statements awaiting the reference
	fold    []classGolden       // oltp: running per-class fold over the prefix
	prefix  []classGolden       // oltp: every prefix statement's digest, in order
	sqls    []string            // generated SQL of the golden prefix
}

type pendingCold struct {
	class int
	d     stmtDigest
}

func newVerifier(w workload, seed int64) (*verifier, error) {
	gold, err := loadGolden(w.name)
	if err != nil {
		return nil, err
	}
	return &verifier{w: w, seed: seed, gold: gold, first: map[int]classGolden{},
		fold: make([]classGolden, len(w.classes)),
		got:  golden{Workload: w.name, Seed: seed, Classes: map[string]classGolden{}}}, nil
}

func (v *verifier) fail(format string, args ...any) {
	v.failed++
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// inPrefix reports whether pass belongs to the prefix the goldens and
// the shadow replay cover: the passes a -quick run executes.
func (v *verifier) inPrefix(pass int) bool { return pass >= 0 && pass < v.w.quick }

// check records the outcome of one timed statement.
func (v *verifier) check(pass int, o op, res *taupsm.Result, err error) {
	v.attempted++
	if v.inPrefix(pass) {
		v.sqls = append(v.sqls, o.sql)
	}
	var d stmtDigest
	var cg classGolden
	if err != nil {
		v.fail("%s: %v", o.sql, err)
	} else {
		d = digest(o, res)
		cg = classGolden{Rows: d.rows, Digest: d.hex()}
	}
	switch {
	case v.w.persist:
		if v.inPrefix(pass) {
			f := &v.fold[o.class]
			f.Rows += cg.Rows
			f.Digest = chain(f.Digest, cg.Digest)
			v.prefix = append(v.prefix, cg)
		}
	case err != nil:
	case v.w.repeats:
		if prev, ok := v.first[o.class]; !ok {
			v.first[o.class] = cg
		} else if prev != cg {
			v.fail("%s pass %d: result %v differs from the first pass's %v", v.w.classes[o.class], pass, cg, prev)
		}
	default:
		v.pending = append(v.pending, pendingCold{class: o.class, d: d})
	}
}

// chain folds one more digest into a running one.
func chain(prev, cur string) string {
	sum := sha256.Sum256([]byte(prev + "\n" + cur))
	return hex.EncodeToString(sum[:16])
}

// compareClasses checks the observed per-class entries against the
// golden's.
func (v *verifier) compareClasses() {
	for name, want := range v.gold.Classes {
		if got, ok := v.got.Classes[name]; !ok || got != want {
			v.attempted++
			v.fail("%s/%s: got %v, golden %v", v.w.name, name, got, want)
		}
	}
}

// finishQueries completes the checks of an in-memory query workload
// after its timed region.
func (v *verifier) finishQueries(in *instance) {
	if v.w.repeats {
		for ci, cg := range v.first {
			v.got.Classes[v.w.classes[ci]] = cg
		}
	} else {
		v.checkAgainstReference(in)
	}
	v.compareClasses()
	v.finishInput(in)
}

// checkAgainstReference verifies cold-auto-1d: each class's full-timeline
// result under forced MAX is swept into a per-day timeline, every timed
// statement's timeslices must equal the timeline's on the same days
// (whatever strategy auto chose for it), and the timeline itself, sampled
// on the 30-day grid, must equal the golden.
func (v *verifier) checkAgainstReference(in *instance) {
	begin, end := taubench.TimelineStart(), taubench.TimelineEnd()
	in.db.SetStrategy(taupsm.Max)
	defer in.db.SetStrategy(in.w.strategy)
	ref := make([]timeline, len(v.w.classes))
	for ci, name := range v.w.classes {
		res, err := in.db.Query(sequenced(begin, end, in.g.queries[name].Text))
		if err != nil {
			v.attempted++
			v.fail("reference %s: %v", name, err)
			return
		}
		ref[ci] = newTimeline(res, begin, end)
		grid := ref[ci].grid(gridStride)
		v.got.Classes[name] = classGolden{Rows: grid.rows, Digest: grid.hex()}
	}
	for _, p := range v.pending {
		for _, b := range p.d.bags {
			if want := ref[p.class].at(b.Day); b.bag != want {
				v.fail("%s on day %d: timeslice %v, reference %v", v.w.classes[p.class], b.Day, b.bag, want)
				break
			}
		}
	}
}

// finishInput checks the input digest. The generated SQL depends on the
// seed unless the workload's text is fixed, so away from the golden's
// seed only such workloads are checked.
func (v *verifier) finishInput(in *instance) {
	sort.Strings(v.sqls)
	v.got.InputDigest = inputDigest(in.loaded, v.sqls)
	if (v.seed == goldenSeed || v.w.repeats) && v.got.InputDigest != v.gold.InputDigest {
		v.attempted++
		v.fail("%s: input digest %s, golden %s: the generated SQL or the loaded data drifted",
			v.w.name, v.got.InputDigest, v.gold.InputDigest)
	}
}

// endOfPrefix takes the image of the stored tables when the prefix's
// last block has run; finishPrefix compares it after the timed region.
func (v *verifier) endOfPrefix(in *instance) {
	v.got.Tables = tableDigests(in.db.Engine().Cat)
}

// finishPrefix completes oltp-persist's prefix checks: the per-class
// folds and the stored tables against the golden (at its seed), and
// against a replay of the same statements on an in-memory database under
// forced MAX (at every seed), which must agree statement by statement and
// table by table.
func (v *verifier) finishPrefix(in *instance) {
	for ci, f := range v.fold {
		v.got.Classes[v.w.classes[ci]] = f
	}
	if v.seed == goldenSeed {
		v.compareClasses()
		v.compareTables("golden", v.gold.Tables, v.got.Tables)
	}

	shadow, err := setUp(v.w, in.g, "", taupsm.Max)
	if err != nil {
		v.attempted++
		v.fail("shadow set-up: %v", err)
		return
	}
	defer shadow.close()
	i := 0
	for pass := 0; pass < v.w.quick; pass++ {
		for _, o := range v.w.gen(in.g, pass) {
			if err := shadow.beforeStatement(); err != nil {
				v.fail("shadow: %v", err)
			}
			res, err := shadow.db.Query(o.sql)
			if err != nil {
				v.fail("shadow %s: %v", o.sql, err)
			} else if d := digest(o, res); (classGolden{Rows: d.rows, Digest: d.hex()}) != v.prefix[i] {
				v.fail("%s: auto on the persistent database and MAX on the in-memory shadow disagree", o.sql)
			}
			i++
		}
	}
	v.compareTables("shadow", tableDigests(shadow.db.Engine().Cat), v.got.Tables)
}

func (v *verifier) compareTables(what string, want, got map[string]string) {
	for name, w := range want {
		if got[name] != w {
			v.attempted++
			v.fail("table %s: digest %s, %s has %s", name, got[name], what, w)
		}
	}
}
