package core

import (
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// Maximally-fragmented slicing (paper §V): compute the constant periods
// of every reachable temporal table into a cp table, evaluate the
// original query once per constant period (by joining cp), and pass
// cp.begin_time into every reachable temporal routine, whose internal
// queries gain an overlaps-the-instant predicate. MAX always applies.

const (
	tsTable = "taupsm_ts"
	cpTable = "taupsm_cp"
	cpAlias = "cp"
)

// addMaxPredicates adds the point-overlap predicate along dimension dim
// for every temporal table carrying it in every SELECT under stmt,
// evaluating at instant `at` — the beginning of the constant period,
// which suffices because nothing changes during one (§V-B). Tables
// carrying only the orthogonal dimension are the context-filter pass's
// job.
func (tr *Translator) addMaxPredicates(stmt sqlast.Node, at sqlast.Expr, dim sqlast.TemporalDimension) {
	tr.eachTemporalEntry(stmt, func(fe fromEntry) {
		if tr.carriesDim(fe.Name, dim) {
			bcol, ecol := tr.SlicePeriodCols(fe.Name, dim)
			fe.restrict(instantIn(fe.Alias, bcol, ecol, at))
		}
	})
}

// renameMaxCalls renames invocations of temporal routines to max_name
// and appends the slicing instant as an extra argument (§V-B, §V-C).
func renameMaxCalls(stmt sqlast.Node, a *analysis, at sqlast.Expr) {
	rename := func(name *string, args *[]sqlast.Expr) {
		if a.temporalRoutine(*name) {
			*name = "max_" + *name
			*args = append(*args, sqlast.CloneExpr(at))
		}
	}
	sqlast.Rewrite(stmt, func(n sqlast.Node) sqlast.Node {
		switch x := n.(type) {
		case *sqlast.FuncCall:
			rename(&x.Name, &x.Args)
		case *sqlast.CallStmt:
			rename(&x.Name, &x.Args)
		}
		return n
	})
}

// maxRoutine produces the max_ clone of a temporal routine: an extra
// begin_time_in parameter, point-overlap predicates on its queries, and
// the instant propagated to nested temporal routines. Tables carrying
// the orthogonal dimension are pinned to the default (current) context
// — clone names are deterministic, so per-statement context literals
// cannot be embedded.
func (tr *Translator) maxRoutine(a *analysis, name string, dim sqlast.TemporalDimension) sqlast.Stmt {
	at := &sqlast.ColumnRef{Column: "begin_time_in"}
	def := a.cloneRoutine(name, "max_",
		sqlast.ParamDef{Name: "begin_time_in", Type: sqlast.TypeName{Base: "DATE"}, Instant: true})
	tr.addMaxPredicates(def, at, dim)
	tr.addContextFilters(def, dim, nil, nil)
	renameMaxCalls(def, a, at)
	return def
}

// constantPeriodScript builds the Figure-8 SQL that materializes the
// time-point table ts and the constant-period table cp over context
// [begin, end), collecting each source's period pair.
func constantPeriodScript(sources []PeriodSource, begin, end sqlast.Expr) (setup, teardown []sqlast.Stmt) {
	setup = append(setup,
		&sqlast.DropTableStmt{Name: tsTable, IfExists: true},
		&sqlast.DropTableStmt{Name: cpTable, IfExists: true},
		&sqlast.CreateTableStmt{Name: tsTable, Temporary: true,
			Cols: []sqlast.ColumnDef{{Name: "time_point", Type: sqlast.TypeName{Base: "DATE"}}}},
	)

	// INSERT INTO ts SELECT begin_time FROM t1 UNION SELECT end_time
	// FROM t1 UNION ... UNION VALUES (P1), (P2)
	var union sqlast.QueryExpr
	addSel := func(q sqlast.QueryExpr) {
		if union == nil {
			union = q
		} else {
			union = &sqlast.SetOpExpr{Op: "UNION", L: union, R: q}
		}
	}
	for _, src := range sources {
		for _, c := range []string{src.Begin, src.End} {
			addSel(&sqlast.SelectStmt{
				Items: []sqlast.SelectItem{{Expr: col("", c), Alias: "time_point"}},
				From:  []sqlast.TableRef{&sqlast.BaseTable{Name: src.Table}},
			})
		}
	}
	addSel(&sqlast.ValuesExpr{Rows: [][]sqlast.Expr{
		{sqlast.CloneExpr(begin)}, {sqlast.CloneExpr(end)},
	}})
	setup = append(setup, &sqlast.InsertStmt{Table: tsTable, Source: union})

	// CREATE TEMPORARY TABLE cp AS (self-join with NOT EXISTS): the
	// adjacent pairs of time points within the context.
	tp := func(alias string) sqlast.Expr { return col(alias, "time_point") }
	where := andExpr(
		&sqlast.BinaryExpr{Op: "<", L: tp("ts1"), R: tp("ts2")},
		andExpr(
			&sqlast.BinaryExpr{Op: "<=", L: sqlast.CloneExpr(begin), R: tp("ts1")},
			andExpr(
				&sqlast.BinaryExpr{Op: "<", L: tp("ts1"), R: sqlast.CloneExpr(end)},
				&sqlast.BinaryExpr{Op: "<=", L: tp("ts2"), R: sqlast.CloneExpr(end)},
			),
		),
	)
	notExists := &sqlast.ExistsExpr{Not: true, Sub: &sqlast.SelectStmt{
		Items: []sqlast.SelectItem{{Expr: col("", "time_point")}},
		From:  []sqlast.TableRef{&sqlast.BaseTable{Name: tsTable, Alias: "ts3"}},
		Where: andExpr(
			&sqlast.BinaryExpr{Op: "<", L: tp("ts1"), R: tp("ts3")},
			&sqlast.BinaryExpr{Op: "<", L: tp("ts3"), R: tp("ts2")},
		),
	}}
	cpQuery := &sqlast.SelectStmt{
		Items: []sqlast.SelectItem{
			{Expr: tp("ts1"), Alias: "begin_time"},
			{Expr: tp("ts2"), Alias: "end_time"},
		},
		From: []sqlast.TableRef{
			&sqlast.BaseTable{Name: tsTable, Alias: "ts1"},
			&sqlast.BaseTable{Name: tsTable, Alias: "ts2"},
		},
		Where: andExpr(where, notExists),
	}
	setup = append(setup, &sqlast.CreateTableStmt{Name: cpTable, Temporary: true, AsQuery: cpQuery, WithData: true})

	teardown = append(teardown,
		&sqlast.DropTableStmt{Name: tsTable, IfExists: true},
		&sqlast.DropTableStmt{Name: cpTable, IfExists: true},
	)
	return setup, teardown
}

// maxSlice finishes slice's translation of a sequenced query, main being
// its own clone of it, over the constant periods of the reachable tables.
func (tr *Translator) maxSlice(out *Translation, a *analysis, main sqlast.QueryExpr, ctxBegin, ctxEnd sqlast.Expr) (*Translation, error) {
	dim := out.Dim
	if err := tr.refuseSlicedDerivedTables(a, main, dim); err != nil {
		return nil, err
	}
	for _, rn := range a.routines {
		if a.temporalRoutine(rn) {
			out.Routines = append(out.Routines, tr.maxRoutine(a, rn, dim))
		}
	}

	out.NeedsConstantPeriods = true
	out.PeriodSources = make([]PeriodSource, len(a.temporalTables))
	for i, tn := range a.temporalTables {
		bcol, ecol := tr.SlicePeriodCols(tn, dim)
		out.PeriodSources[i] = PeriodSource{tn, bcol, ecol}
	}

	at := col(cpAlias, "begin_time")

	// Every SELECT (including subqueries) evaluates at the instant
	// cp.begin_time; subqueries reference cp through correlation. Tables
	// carrying only the orthogonal dimension (and the orthogonal pair of
	// bitemporal tables) are pinned to the secondary context instead.
	tr.addMaxPredicates(main, at, dim)
	tr.addContextFilters(main, dim, ctxBegin, ctxEnd)
	renameMaxCalls(main, a, at)

	// The outermost SELECT block(s) additionally join cp and return
	// the constant period as the row timestamp.
	main = addAggregateGaps(main)
	addCpToTopSelects(main)

	out.Main = main.(sqlast.Stmt)
	return out, nil
}

// refuseSlicedDerivedTables refuses a derived table in the FROM clause of
// a top-level SELECT block that reads a table carrying the sliced
// dimension, or calls a routine that does. MAX evaluates such a read at
// the instant cp.begin_time, and cp is joined into that same FROM clause:
// a derived table is not lateral, so cp is out of its scope. (One inside
// a subquery is fine — the subquery is correlated, cp in its outer scope
// — and so is one in a routine body, where the instant is a parameter.)
func (tr *Translator) refuseSlicedDerivedTables(a *analysis, main sqlast.QueryExpr, dim sqlast.TemporalDimension) (err error) {
	var check func(r sqlast.TableRef)
	check = func(r sqlast.TableRef) {
		switch x := r.(type) {
		case *sqlast.JoinExpr:
			check(x.L)
			check(x.R)
		case *sqlast.DerivedTable:
			over := func(what, name string) {
				if err == nil {
					err = refuse(sqlast.PosOf(x.Query), "MAX cannot slice a derived table over temporal %s %s: the table is evaluated outside the scope of the constant periods it would be sliced at", what, name)
				}
			}
			tr.eachTemporalEntry(x.Query, func(fe fromEntry) {
				if tr.carriesDim(fe.Name, dim) {
					over("table", fe.Name)
				}
			})
			sqlast.Walk(x.Query, func(n sqlast.Node) bool {
				if fc, ok := n.(*sqlast.FuncCall); ok && a.temporalRoutine(fc.Name) {
					over("routine", fc.Name)
				}
				return err == nil
			})
		}
	}
	for _, sel := range topSelects(main) {
		for _, r := range sel.From {
			check(r)
		}
	}
	return err
}

// addAggregateGaps makes every top-level SELECT block with aggregates
// and no GROUP BY (also inside a top-level UNION ALL) answer for the
// constant periods in which nothing qualifies. The nontemporal query
// returns one row on such a timeslice — COUNT 0, the other aggregates
// NULL — but grouping the block by the constant period, as
// addCpToTopSelects does, yields no group there. The block becomes
// `block UNION ALL gap`, where gap selects the block's items with each
// aggregate replaced by its empty-input value, for the periods in which
// the block's FROM/WHERE (which already carries the point predicates on
// cp) finds no row and the block's HAVING, substituted alike, holds. A
// block with ORDER BY is left alone: the union cannot carry it (and one
// with FETCH FIRST was refused by slice).
func addAggregateGaps(q sqlast.QueryExpr) sqlast.QueryExpr {
	switch x := q.(type) {
	case *sqlast.SetOpExpr:
		if x.Op == "UNION" && x.All {
			x.L, x.R = addAggregateGaps(x.L), addAggregateGaps(x.R)
		}
	case *sqlast.SelectStmt:
		if len(x.GroupBy) > 0 || len(x.OrderBy) > 0 || !hasAggregates(x) {
			return x
		}
		c := sqlast.CloneStmt(x).(*sqlast.SelectStmt)
		aggs := blockAggregates(c)
		gap := &sqlast.SelectStmt{Items: c.Items, Where: c.Having}
		sqlast.MapExprs(gap, func(e sqlast.Expr) sqlast.Expr {
			fc, ok := e.(*sqlast.FuncCall)
			switch {
			case !ok || !aggs[fc]:
				return e
			case strings.EqualFold(fc.Name, "COUNT"):
				return &sqlast.Literal{Val: types.NewInt(0)}
			}
			return &sqlast.Literal{Val: types.Null}
		})
		gap.Where = andExpr(&sqlast.ExistsExpr{Not: true, Sub: &sqlast.SelectStmt{
			Items: []sqlast.SelectItem{{Expr: &sqlast.Literal{Val: types.NewInt(1)}}},
			From:  c.From, Where: c.Where,
		}}, gap.Where)
		return &sqlast.SetOpExpr{Op: "UNION", All: true, L: x, R: gap}
	}
	return q
}

// addCpToTopSelects joins cp into the top-level SELECT block(s) of a
// query tree and prepends cp.begin_time/cp.end_time to the select list.
// Aggregating selects additionally group by the constant period so each
// period aggregates its own timeslice (sequenced aggregation).
func addCpToTopSelects(q sqlast.QueryExpr) {
	for _, x := range topSelects(q) {
		// cp goes first so lateral table functions taking
		// cp.begin_time as an argument can see it in scope.
		x.From = append([]sqlast.TableRef{&sqlast.BaseTable{Name: cpTable, Alias: cpAlias}}, x.From...)
		x.Items = append([]sqlast.SelectItem{
			{Expr: col(cpAlias, "begin_time"), Alias: "begin_time"},
			{Expr: col(cpAlias, "end_time"), Alias: "end_time"},
		}, x.Items...)
		if len(x.GroupBy) > 0 || hasAggregates(x) {
			x.GroupBy = append(x.GroupBy,
				col(cpAlias, "begin_time"), col(cpAlias, "end_time"))
		}
	}
}

// hasAggregates reports aggregate function calls in the select list or
// HAVING clause, not descending into subqueries.
func hasAggregates(sel *sqlast.SelectStmt) bool { return len(blockAggregates(sel)) > 0 }

// blockAggregates collects the aggregate calls of a SELECT block's own
// select list and HAVING clause (not those of its subqueries).
func blockAggregates(sel *sqlast.SelectStmt) map[*sqlast.FuncCall]bool {
	aggs := map[*sqlast.FuncCall]bool{}
	visit := func(n sqlast.Node) bool {
		switch x := n.(type) {
		case *sqlast.SubqueryExpr, *sqlast.ExistsExpr:
			return false
		case *sqlast.FuncCall:
			if sqlast.IsAggregate(x.Name) {
				aggs[x] = true
			}
		}
		return true
	}
	for _, it := range sel.Items {
		if it.Expr != nil {
			sqlast.Walk(it.Expr, visit)
		}
	}
	if sel.Having != nil {
		sqlast.Walk(sel.Having, visit)
	}
	return aggs
}

// prependPeriodItems prepends constant begin/end items to the select
// list(s) of a query tree.
func prependPeriodItems(q sqlast.QueryExpr, begin, end sqlast.Expr) {
	for _, x := range topSelects(q) {
		x.Items = append([]sqlast.SelectItem{
			{Expr: sqlast.CloneExpr(begin), Alias: "begin_time"},
			{Expr: sqlast.CloneExpr(end), Alias: "end_time"},
		}, x.Items...)
	}
}
