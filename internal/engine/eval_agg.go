package engine

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// aggPlan is one aggregate call of a plan: the call, and its argument
// compiled (nil for COUNT(*)).
type aggPlan struct {
	fc  *sqlast.FuncCall
	arg evalFn
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count    int64
	sum      float64
	sumInt   int64
	isFloat  bool
	min, max types.Value
	distinct map[string]bool
	seenAny  bool
}

func (a *aggState) add(fc *sqlast.FuncCall, v types.Value) {
	if fc.Star {
		a.count++
		return
	}
	if v.IsNull() {
		return
	}
	if fc.Distinct {
		if a.distinct == nil {
			a.distinct = make(map[string]bool)
		}
		var scratch [64]byte
		k := v.AppendHashKey(scratch[:0])
		if a.distinct[string(k)] {
			return
		}
		a.distinct[string(k)] = true
	}
	a.count++
	switch v.Kind {
	case types.KindFloat:
		a.isFloat = true
		a.sum += v.F
	case types.KindInt, types.KindBool, types.KindDate:
		a.sumInt += v.I
		a.sum += float64(v.I)
	}
	if !a.seenAny {
		a.min, a.max = v, v
		a.seenAny = true
	} else {
		if c, ok := types.Compare(v, a.min); ok && c < 0 {
			a.min = v
		}
		if c, ok := types.Compare(v, a.max); ok && c > 0 {
			a.max = v
		}
	}
}

func (a *aggState) result(fc *sqlast.FuncCall) types.Value {
	switch name := fc.Name; {
	case strings.EqualFold(name, "COUNT"):
		return types.NewInt(a.count)
	case strings.EqualFold(name, "SUM"):
		if a.count == 0 {
			return types.Null
		}
		if a.isFloat {
			return types.NewFloat(a.sum)
		}
		return types.NewInt(a.sumInt)
	case strings.EqualFold(name, "AVG"):
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat(a.sum / float64(a.count))
	case strings.EqualFold(name, "MIN"):
		if !a.seenAny {
			return types.Null
		}
		return a.min
	case strings.EqualFold(name, "MAX"):
		if !a.seenAny {
			return types.Null
		}
		return a.max
	}
	return types.Null
}

// accumulate is the grouping sink: it finds (or opens) the group of the
// row the scope binds and adds the row to the group's aggregates. A
// group remembers the rows bound when it was opened — its representative
// in the group expressions of the output.
func (r *pipe) accumulate() error {
	db, ctx, p := r.db, r.ctx, r.p
	start := len(db.keyBuf)
	for _, g := range p.groupBy {
		v, err := g(ctx)
		if err != nil {
			db.keyBuf = db.keyBuf[:start]
			return err
		}
		db.keyBuf = appendKey(db.keyBuf, v)
	}
	id, fresh := r.ids.id(db.keyBuf[start:])
	db.keyBuf = db.keyBuf[:start]
	if fresh {
		r.reps = append(r.reps, ctx.scope.rows[:len(p.metas)]...)
		r.states = append(r.states, make([]aggState, len(p.aggs)))
	}
	for k, a := range p.aggs {
		v := types.Null
		if a.arg != nil {
			var err error
			if v, err = a.arg(ctx); err != nil {
				return err
			}
		}
		r.states[id][k].add(a.fc, v)
	}
	return nil
}

// outputGroups implements HAVING and the select list over the groups
// accumulate formed. Like the projecting sink it leaves the rows
// unordered, with their sort keys when the SELECT orders.
func (r *pipe) outputGroups() error {
	db, ctx, p := r.db, r.ctx, r.p
	sc, n := ctx.scope, len(p.metas)
	// Grand aggregate over an empty input still yields one row, its
	// group expressions reading NULL rows.
	if len(p.groupBy) == 0 && len(r.states) == 0 {
		for _, m := range p.metas {
			r.reps = append(r.reps, db.pushNulls(len(m.Cols)))
		}
		r.states = append(r.states, make([]aggState, len(p.aggs)))
	}
	for _, it := range p.items {
		if it.expr == nil {
			return fmt.Errorf("SELECT * cannot be combined with GROUP BY or aggregates")
		}
	}
	aggs := db.pushNulls(len(p.aggs))
	sc.rows = append(sc.rows, aggs)
	for g, states := range r.states {
		copy(sc.rows, r.reps[g*n:(g+1)*n])
		for k, a := range p.aggs {
			aggs[k] = states[k].result(a.fc)
		}
		if p.having != nil {
			hv, err := p.having(ctx)
			if err != nil {
				return err
			}
			if hv != types.True {
				continue
			}
		}
		a := len(db.valBuf)
		for _, it := range p.items {
			v, err := it.expr(ctx)
			if err != nil {
				return err
			}
			db.valBuf = append(db.valBuf, v)
		}
		if err := r.put(a); err != nil {
			return err
		}
	}
	return nil
}
