package taupsm

import (
	"fmt"
	"math/rand"
	"testing"
)

// Property test for modifications: apply a random sequence of sequenced
// UPDATEs and DELETEs — SET values plain, alias-qualified and
// table-qualified — and, the clock advanced a day before each, of current
// ones to a valid-time table and its bitemporal twin and, in parallel, to
// a brute-force per-day model (a map day -> value per key). After every
// step each table's timeslice at each day (the twin's among its current
// beliefs) must equal the model — the very definition of sequenced
// semantics, and of a current statement as the sequenced one from today
// on. A second modification of a row on the day it began is ROADMAP 1(c)
// and a current UPDATE of a row that ends before forever is 1(m): neither
// is generated.
func TestSequencedDMLAgainstPerDayModel(t *testing.T) {
	const horizon = 120 // days
	tables := []string{"reading", "reading_bt"}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := Open()
			db.SetNow(2020, 1, 1)
			db.MustExec(`CREATE TABLE reading (sensor CHAR(5), val INTEGER) AS VALIDTIME`)
			db.MustExec(`CREATE TABLE reading_bt (sensor CHAR(5), val INTEGER) AS VALIDTIME AS TRANSACTIONTIME`)
			// exec runs one statement, written over %[1]s, on both tables.
			exec := func(format string, args ...any) {
				for _, table := range tables {
					db.MustExec(fmt.Sprintf(format, append([]any{table}, args...)...))
				}
			}

			// model[sensor][day] = value (or absent)
			sensors := []string{"s1", "s2", "s3"}
			model := map[string]map[int]int{}
			base := int64(18262) // 2020-01-01 in epoch days
			day := func(offset int) string {
				d := base + int64(offset)
				y, m, dd := civil(d)
				return fmt.Sprintf("%04d-%02d-%02d", y, m, dd)
			}

			// initial rows covering the whole horizon
			for i, s := range sensors {
				model[s] = map[int]int{}
				for d := 0; d < horizon; d++ {
					model[s][d] = i * 100
				}
				exec(`NONSEQUENCED VALIDTIME INSERT INTO %s VALUES ('%s', %d, DATE '%s', DATE '%s')`,
					s, i*100, day(0), day(horizon))
			}

			check := func(step string) {
				for _, table := range tables {
					q := `NONSEQUENCED VALIDTIME SELECT sensor, val, begin_time, end_time FROM ` + table
					if table == "reading_bt" {
						q += ` WHERE tt_end_time = DATE '9999-12-31'`
					}
					res, err := db.Query(q)
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					got := map[string]map[int][]int{}
					for _, row := range res.Rows {
						s := row[0].String()
						v := int(row[1].Int())
						b, e := row[2].String(), row[3].String()
						for d := 0; d < horizon; d++ {
							ds := day(d)
							if b <= ds && ds < e {
								if got[s] == nil {
									got[s] = map[int][]int{}
								}
								got[s][d] = append(got[s][d], v)
							}
						}
					}
					for _, s := range sensors {
						for d := 0; d < horizon; d++ {
							want, ok := model[s][d]
							vals := got[s][d]
							if !ok {
								if len(vals) != 0 {
									t.Fatalf("%s: %s %s day %d: model deleted, table has %v", step, table, s, d, vals)
								}
								continue
							}
							if len(vals) != 1 || vals[0] != want {
								t.Fatalf("%s: %s %s day %d: model %d, table %v", step, table, s, d, want, vals)
							}
						}
					}
				}
			}

			check("initial")
			today := 0
			for step := 0; step < 16; step++ {
				s := sensors[rng.Intn(len(sensors))]
				p1 := rng.Intn(horizon)
				p2 := p1 + 1 + rng.Intn(horizon-p1)
				if rng.Intn(2) == 0 {
					p2 = horizon // leaves the last row of s ending where a current UPDATE can follow, 1(m)
				}
				nv := rng.Intn(1000)
				period := fmt.Sprintf(`VALIDTIME (DATE '%s', DATE '%s') `, day(p1), day(p2))
				switch op := rng.Intn(8); op {
				case 0, 1: // sequenced delete over [p1, p2)
					exec(period+`DELETE FROM %s WHERE sensor = '%s'`, s)
					for d := p1; d < p2; d++ {
						delete(model[s], d)
					}
				case 2:
					exec(period+`UPDATE %s SET val = %d WHERE sensor = '%s'`, nv, s)
					for d := p1; d < p2; d++ {
						if _, ok := model[s][d]; ok {
							model[s][d] = nv
						}
					}
				case 3, 4: // SET reads the row, under the alias or the table's name
					if op == 3 {
						exec(period+`UPDATE %s r SET val = r.val + %d WHERE r.sensor = '%s'`, nv, s)
					} else {
						exec(period+`UPDATE %[1]s SET val = %[1]s.val + %[2]d WHERE %[1]s.sensor = '%[3]s'`, nv, s)
					}
					for d := p1; d < p2; d++ {
						if _, ok := model[s][d]; ok {
							model[s][d] += nv
						}
					}
				default: // a current statement, on the next clock day
					today++
					db.SetNow(civil(base + int64(today)))
					if _, ok := model[s][today]; !ok {
						exec(`DELETE FROM %s WHERE sensor = '%s'`, s) // nothing is valid today
						break
					}
					// A current statement changes the row valid today over the
					// rest of that row's period, [today, e).
					res, err := db.Query(fmt.Sprintf(`NONSEQUENCED VALIDTIME SELECT begin_time, end_time FROM reading
						WHERE sensor = '%s' AND begin_time <= DATE '%s' AND DATE '%s' < end_time`, s, day(today), day(today)))
					if err != nil || len(res.Rows) != 1 {
						t.Fatalf("step %d: the row of %s valid on day %d: %v, %v", step, s, today, res, err)
					}
					b, e := res.Rows[0][0].String(), res.Rows[0][1].String()
					if op < 7 && b < day(today) && e >= day(horizon) {
						exec(`UPDATE %s SET val = val + %d WHERE sensor = '%s'`, nv, s)
						for d := today; d < horizon; d++ {
							model[s][d] += nv
						}
					} else {
						exec(`DELETE FROM %s WHERE sensor = '%s'`, s)
						for d := today; d < horizon && day(d) < e; d++ {
							delete(model[s], d)
						}
					}
				}
				check(fmt.Sprintf("step %d", step))
			}
		})
	}
}

// civil converts epoch days to (y, m, d) without importing internals.
func civil(z int64) (int, int, int) {
	z += 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d := int(doy - (153*mp+2)/5 + 1)
	m := int(mp + 3)
	if mp >= 10 {
		m = int(mp - 9)
	}
	if m <= 2 {
		y++
	}
	return int(y), m, d
}
