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

// evalGrouped implements GROUP BY / HAVING / aggregate evaluation over
// the joined relation. Like project it returns the rows unordered, with
// their sort keys when the SELECT orders.
func (db *DB) evalGrouped(ctx *execCtx, p *selPlan, acc *rel) (*Result, [][]types.Value, error) {
	type group struct {
		rep    int // row of acc representing the group in group expressions
		states []aggState
	}
	var groups []group // in first-seen order
	ids := keyIDs{}
	sc := ctx.scope
	for i := 0; i < acc.n; i++ {
		sc.bind(acc, i)
		start := len(db.keyBuf)
		for _, g := range p.groupBy {
			v, err := g(ctx)
			if err != nil {
				db.keyBuf = db.keyBuf[:start]
				return nil, nil, err
			}
			db.keyBuf = appendKey(db.keyBuf, v)
		}
		id, fresh := ids.id(db.keyBuf[start:])
		db.keyBuf = db.keyBuf[:start]
		if fresh {
			groups = append(groups, group{rep: i, states: make([]aggState, len(p.aggs))})
		}
		for k, a := range p.aggs {
			v := types.Null
			if a.arg != nil {
				var err error
				if v, err = a.arg(ctx); err != nil {
					return nil, nil, err
				}
			}
			groups[id].states[k].add(a.fc, v)
		}
	}

	// Grand aggregate over an empty input still yields one row.
	if len(p.groupBy) == 0 && len(groups) == 0 {
		groups = append(groups, group{rep: -1, states: make([]aggState, len(p.aggs))})
	}

	for _, it := range p.items {
		if it.expr == nil {
			return nil, nil, fmt.Errorf("SELECT * cannot be combined with GROUP BY or aggregates")
		}
	}
	res := &Result{Cols: p.cols}
	var keys [][]types.Value
	aggs := make([]types.Value, len(p.aggs))
	sc.rows = append(sc.rows, aggs)
	for _, gr := range groups {
		if gr.rep >= 0 {
			sc.bind(acc, gr.rep)
		} else {
			// empty-input grand aggregate: bind NULL rows
			for e, m := range sc.metas {
				sc.rows[e] = make([]types.Value, len(m.cols))
			}
		}
		for k, a := range p.aggs {
			aggs[k] = gr.states[k].result(a.fc)
		}
		if p.having != nil {
			hv, err := p.having(ctx)
			if err != nil {
				return nil, nil, err
			}
			if hv != types.True {
				continue
			}
		}
		vals := make([]types.Value, len(p.items))
		for i, it := range p.items {
			v, err := it.expr(ctx)
			if err != nil {
				return nil, nil, err
			}
			vals[i] = v
		}
		res.Rows = append(res.Rows, vals)
		if len(p.order) > 0 {
			k, err := db.orderKeys(ctx, p, vals)
			if err != nil {
				return nil, nil, err
			}
			keys = append(keys, k)
		}
	}
	return res, keys, nil
}
