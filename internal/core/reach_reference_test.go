package core

import (
	"fmt"
	"reflect"
	"strings"

	"taupsm/internal/sqlast"
)

// The translator's reach as it was computed before the call graph was
// closed once (callgraph.go): its own walk of each statement
// (collectDirect), a breadth-first queue over the names it found and a
// fixpoint for routineTemporal. Kept verbatim, but for the names, as the
// oracle the analysis must equal (TestReachEqualsReference). It reads a
// view as one table, as the translator does.

type refAnalysis struct {
	dim            sqlast.TemporalDimension
	tables         []string // reachable tables and views, first-seen order
	temporalTables []string // temporal tables of the analyzed dimension
	mismatched     []string // temporal tables of the *other* dimension
	routines       []string // reachable routines, first-seen order

	routineDef      map[string]sqlast.Stmt // lowercased name -> definition
	isProc          map[string]bool
	routineTemporal map[string]bool // routine (transitively) touches temporal data
	modifierIn      map[string]bool // routine contains a temporal modifier
	directTables    map[string][]string
	callees         map[string][]string
}

// refDirect holds what one statement references without recursion.
type refDirect struct {
	tables      []string
	calls       []string
	hasModifier bool
}

// refCollectDirect finds tables and views, routine invocations, and
// temporal modifiers in a single pass over one statement.
func (tr *Translator) refCollectDirect(stmt sqlast.Node) refDirect {
	var d refDirect
	seenT := map[string]bool{}
	seenC := map[string]bool{}
	sqlast.Walk(stmt, func(n sqlast.Node) bool {
		switch x := n.(type) {
		case *sqlast.BaseTable:
			k := strings.ToLower(x.Name)
			if !seenT[k] && (tr.Info.IsTable(x.Name) || tr.Info.View(x.Name) != nil) {
				seenT[k] = true
				d.tables = append(d.tables, x.Name)
			}
		case *sqlast.FuncCall:
			k := strings.ToLower(x.Name)
			if !seenC[k] && tr.Info.Function(x.Name) != nil {
				seenC[k] = true
				d.calls = append(d.calls, x.Name)
			}
		case *sqlast.CallStmt:
			k := strings.ToLower(x.Name)
			if !seenC[k] && tr.Info.Procedure(x.Name) != nil {
				seenC[k] = true
				d.calls = append(d.calls, x.Name)
			}
		case *sqlast.TemporalStmt:
			if x.Mod != sqlast.ModCurrent {
				d.hasModifier = true
			}
		}
		return true
	})
	return d
}

func (tr *Translator) refAnalyzeDim(stmt sqlast.Node, dim sqlast.TemporalDimension) (*refAnalysis, error) {
	a := &refAnalysis{
		dim:             dim,
		routineDef:      map[string]sqlast.Stmt{},
		isProc:          map[string]bool{},
		routineTemporal: map[string]bool{},
		modifierIn:      map[string]bool{},
		directTables:    map[string][]string{},
		callees:         map[string][]string{},
	}
	seenTable := map[string]bool{}
	seenRoutine := map[string]bool{}

	addTables := func(tables []string) {
		for _, t := range tables {
			k := strings.ToLower(t)
			if !seenTable[k] {
				seenTable[k] = true
				a.tables = append(a.tables, t)
				if tr.Info.IsTemporalTable(t) {
					if tr.carriesDim(t, dim) {
						a.temporalTables = append(a.temporalTables, t)
					} else {
						a.mismatched = append(a.mismatched, t)
					}
				}
			}
		}
	}

	root := tr.refCollectDirect(stmt)
	addTables(root.tables)
	queue := append([]string{}, root.calls...)

	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		k := strings.ToLower(name)
		if seenRoutine[k] {
			continue
		}
		seenRoutine[k] = true
		a.routines = append(a.routines, name)
		var body sqlast.Stmt
		if fn := tr.Info.Function(name); fn != nil {
			a.routineDef[k] = fn
			body = fn.Body
		} else if pr := tr.Info.Procedure(name); pr != nil {
			a.routineDef[k] = pr
			a.isProc[k] = true
			body = pr.Body
		} else {
			return nil, fmt.Errorf("routine %s referenced but not defined", name)
		}
		d := tr.refCollectDirect(body)
		addTables(d.tables)
		a.directTables[k] = d.tables
		a.callees[k] = d.calls
		a.modifierIn[k] = d.hasModifier
		queue = append(queue, d.calls...)
	}

	// Fixpoint: a routine is temporal if it references a temporal table
	// directly or calls a temporal routine — of either dimension: one
	// that reaches only tables of the dimension the statement does not
	// slice is still cloned, so its clone filters them to the context.
	for changed := true; changed; {
		changed = false
		for _, r := range a.routines {
			k := strings.ToLower(r)
			if a.routineTemporal[k] {
				continue
			}
			temporal := false
			for _, t := range a.directTables[k] {
				if tr.Info.IsTemporalTable(t) {
					temporal = true
					break
				}
			}
			if !temporal {
				for _, c := range a.callees[k] {
					if a.routineTemporal[strings.ToLower(c)] {
						temporal = true
						break
					}
				}
			}
			if temporal {
				a.routineTemporal[k] = true
				changed = true
			}
		}
	}
	return a, nil
}

// reachDiff describes how the analysis of stmt differs from the
// reference's — the lists in order with names as written, the
// definitions, routineTemporal and modifierIn, and each routine's own
// tables and callees; "" when they agree.
func reachDiff(info SchemaInfo, stmt sqlast.Node, dim sqlast.TemporalDimension) string {
	tr := NewTranslator(info)
	want, err := tr.refAnalyzeDim(stmt, dim)
	if err != nil {
		return "reference: " + err.Error()
	}
	got := tr.analyze(stmt, dim)
	var out []string
	field := func(name string, g, w any) {
		if !reflect.DeepEqual(g, w) {
			out = append(out, fmt.Sprintf("%s = %v, want %v", name, g, w))
		}
	}
	field("tables", got.tables, want.tables)
	field("temporalTables", got.temporalTables, want.temporalTables)
	field("mismatched", got.mismatched, want.mismatched)
	field("routines", got.routines, want.routines)
	def, temporal, modifier := map[string]sqlast.Stmt{}, map[string]bool{}, map[string]bool{}
	for _, r := range got.routines {
		k := strings.ToLower(r)
		def[k], modifier[k] = got.routine(r).def, got.routine(r).b.modifier
		if got.temporalRoutine(r) {
			temporal[k] = true
		}
	}
	field("routineDef", def, want.routineDef)
	field("routineTemporal", temporal, want.routineTemporal)
	field("modifierIn", modifier, want.modifierIn)
	for _, r := range got.routines {
		var own []string
		for _, t := range got.routine(r).b.reads {
			if info.IsTable(t.name) || info.View(t.name) != nil {
				own = append(own, t.name)
			}
		}
		k := strings.ToLower(r)
		field(r+" tables", own, want.directTables[k])
		var callees, wantCallees []string
		for _, c := range got.callees(r) {
			callees = append(callees, strings.ToLower(c.name))
		}
		for _, c := range want.callees[k] {
			wantCallees = append(wantCallees, strings.ToLower(c))
		}
		field(r+" callees", callees, wantCallees)
	}
	return strings.Join(out, "; ")
}
