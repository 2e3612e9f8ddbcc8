package core

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
)

// Sequenced modifications (VALIDTIME [(P1, P2)] INSERT/UPDATE/DELETE):
// the modification applies independently at every instant of the
// period, which in period-timestamped storage means splitting rows that
// straddle the period boundaries. The transform materializes the
// affected rows in a temporary table, deletes the originals, and
// re-inserts the preserved remnants (plus the modified portion for
// UPDATE) — all in conventional SQL, usable by both slicing strategies.

const seqDMLTemp = "taupsm_dml"

// overlapPred builds alias.begin_time < P2 AND P1 < alias.end_time.
func overlapPred(alias string, begin, end sqlast.Expr) sqlast.Expr {
	return andExpr(
		&sqlast.BinaryExpr{Op: "<", L: col(alias, "begin_time"), R: sqlast.CloneExpr(end)},
		&sqlast.BinaryExpr{Op: "<", L: sqlast.CloneExpr(begin), R: col(alias, "end_time")},
	)
}

func (tr *Translator) sequencedDML(body sqlast.Stmt, begin, end sqlast.Expr, strategy Strategy, dim sqlast.TemporalDimension, ctxBegin, ctxEnd sqlast.Expr) (*Translation, error) {
	pos := sqlast.PosOf(body)
	if dim == sqlast.DimTransaction {
		return nil, refuse(pos, "%w: sequenced transaction-time modifications would rewrite the audit past", ErrTransactionTimeManual)
	}
	if ctxBegin != nil {
		return nil, refuse(pos, "a %s context cannot be combined with a modification; modifications always apply to the current belief", dim.Other().Keyword())
	}
	if err := tr.checkNoManualTransactionDML(body); err != nil {
		return nil, err
	}
	a, err := tr.analyzeDim(body, dim)
	if err != nil {
		return nil, err
	}
	if err := tr.checkNoInnerModifiers(a); err != nil {
		return nil, err
	}
	if len(a.routines) > 0 {
		return nil, refuse(pos, "sequenced modifications invoking stored routines are not supported")
	}
	out := &Translation{Strategy: strategy, Dim: dim, ContextBegin: begin, ContextEnd: end, TemporalTables: a.temporalTables}

	switch s := body.(type) {
	case *sqlast.InsertStmt:
		return tr.seqInsert(out, s, begin, end)
	case *sqlast.DeleteStmt:
		return tr.seqDelete(out, s, begin, end)
	case *sqlast.UpdateStmt:
		return tr.seqUpdate(out, s, begin, end)
	}
	return nil, fmt.Errorf("unsupported sequenced modification %T", body)
}

// seqInsert inserts rows valid over exactly [P1, P2); on bitemporal
// targets the assertion is believed from today on.
func (tr *Translator) seqInsert(out *Translation, ins *sqlast.InsertStmt, begin, end sqlast.Expr) (*Translation, error) {
	st := sqlast.CloneStmt(ins).(*sqlast.InsertStmt)
	if !tr.Info.IsTemporalTable(st.Table) {
		return nil, refuse(st.Pos, "sequenced INSERT requires a temporal target table, %s is not temporal", st.Table)
	}
	bi := tr.Info.IsBitemporalTable(st.Table)
	if len(st.Cols) > 0 {
		st.Cols = append(st.Cols, "begin_time", "end_time")
		if bi {
			st.Cols = append(st.Cols, "tt_begin_time", "tt_end_time")
		}
	}
	switch src := st.Source.(type) {
	case *sqlast.ValuesExpr:
		for i := range src.Rows {
			src.Rows[i] = append(src.Rows[i], sqlast.CloneExpr(begin), sqlast.CloneExpr(end))
			if bi {
				src.Rows[i] = append(src.Rows[i], currentDate(), foreverLit())
			}
		}
	case *sqlast.SelectStmt:
		src.Items = append(src.Items,
			sqlast.SelectItem{Expr: sqlast.CloneExpr(begin), Alias: "begin_time"},
			sqlast.SelectItem{Expr: sqlast.CloneExpr(end), Alias: "end_time"})
		if bi {
			src.Items = append(src.Items,
				sqlast.SelectItem{Expr: currentDate(), Alias: "tt_begin_time"},
				sqlast.SelectItem{Expr: foreverLit(), Alias: "tt_end_time"})
		}
	default:
		return nil, refuse(st.Pos, "sequenced INSERT requires a VALUES or SELECT source")
	}
	out.Main = st
	return out, nil
}

// checkRowLocalWhere rejects WHERE clauses that reference other tables:
// sequenced DML (the statement at pos) supports row-local predicates on
// the target table.
func checkRowLocalWhere(pos sqlscan.Pos, where sqlast.Expr) error {
	bad := false
	sqlast.Walk(where, func(n sqlast.Node) bool {
		switch n.(type) {
		case *sqlast.SubqueryExpr, *sqlast.ExistsExpr:
			bad = true
			return false
		case *sqlast.InExpr:
			if in := n.(*sqlast.InExpr); in.Sub != nil {
				bad = true
			}
		}
		return true
	})
	if bad {
		return refuse(pos, "sequenced modifications support only row-local WHERE predicates on the target table")
	}
	return nil
}

// seqDelete removes validity inside [P1, P2), preserving the parts of
// straddling rows outside the period.
func (tr *Translator) seqDelete(out *Translation, del *sqlast.DeleteStmt, begin, end sqlast.Expr) (*Translation, error) {
	if !tr.Info.IsTemporalTable(del.Table) {
		return nil, refuse(del.Pos, "sequenced DELETE requires a temporal target table, %s is not temporal", del.Table)
	}
	if err := checkRowLocalWhere(del.Pos, del.Where); err != nil {
		return nil, err
	}
	alias := del.Alias
	if alias == "" {
		alias = del.Table
	}
	bi := tr.Info.IsBitemporalTable(del.Table)
	affected := andExpr(sqlast.CloneExpr(del.Where), overlapPred(alias, begin, end))
	if bi {
		affected = andExpr(affected, ttCurrentOverlap(alias))
	}

	cols := tr.Info.TableColumns(del.Table)
	if cols == nil {
		return nil, refuse(del.Pos, "unknown temporal table %s", del.Table)
	}
	dataCols := cols[:len(cols)-2]
	if bi {
		dataCols = cols[:len(cols)-4]
	}

	// 1. Materialize the affected rows.
	out.Setup = append(out.Setup,
		&sqlast.DropTableStmt{Name: seqDMLTemp, IfExists: true},
		&sqlast.CreateTableStmt{Name: seqDMLTemp, Temporary: true, WithData: true,
			AsQuery: &sqlast.SelectStmt{
				Items: []sqlast.SelectItem{{Star: true}},
				From:  []sqlast.TableRef{&sqlast.BaseTable{Name: del.Table, Alias: alias}},
				Where: sqlast.CloneExpr(affected),
			}})
	// 2. Retire the originals: plain deletion on a valid-time table,
	// belief versioning on a bitemporal one (same-day assertions vanish,
	// older ones are closed at today).
	out.Setup = append(out.Setup, tr.retireAffected(del.Table, del.Alias, alias, affected, bi)...)
	out.Setup = append(out.Setup,
		// 3. Re-insert the left remnants [b, P1).
		remnantInsert(del.Table, dataCols, begin, end, true, bi),
		// 4. Re-insert the right remnants [P2, e).
		remnantInsert(del.Table, dataCols, begin, end, false, bi),
	)
	out.Main = &sqlast.DropTableStmt{Name: seqDMLTemp, IfExists: true}
	return out, nil
}

// retireAffected removes the affected originals. On a valid-time table
// that is a DELETE; on a bitemporal table the beliefs asserted today
// are deleted outright (date-granular transaction time never recorded
// them) and the rest are closed at CURRENT_DATE, preserving the audit
// past.
func (tr *Translator) retireAffected(table, declAlias, alias string, affected sqlast.Expr, bi bool) []sqlast.Stmt {
	if !bi {
		return []sqlast.Stmt{
			&sqlast.DeleteStmt{Table: table, Alias: declAlias, Where: sqlast.CloneExpr(affected)},
		}
	}
	return []sqlast.Stmt{
		&sqlast.DeleteStmt{Table: table, Alias: declAlias,
			Where: andExpr(sqlast.CloneExpr(affected),
				&sqlast.BinaryExpr{Op: "=", L: col(alias, "tt_begin_time"), R: currentDate()})},
		&sqlast.UpdateStmt{Table: table, Alias: declAlias,
			Sets:  []sqlast.SetClause{{Column: "tt_end_time", Value: currentDate()}},
			Where: sqlast.CloneExpr(affected)},
	}
}

// remnantInsert builds INSERT INTO target SELECT data..., for the left
// (left=true: [begin_time, P1) where begin_time < P1) or right remnant
// ([P2, end_time) where end_time > P2) of the materialized rows. On a
// bitemporal target the remnants are fresh assertions believed from
// today on.
func remnantInsert(target string, dataCols []string, p1, p2 sqlast.Expr, left, bi bool) sqlast.Stmt {
	items := make([]sqlast.SelectItem, 0, len(dataCols)+4)
	for _, c := range dataCols {
		items = append(items, sqlast.SelectItem{Expr: col("", c)})
	}
	var where sqlast.Expr
	if left {
		items = append(items,
			sqlast.SelectItem{Expr: col("", "begin_time")},
			sqlast.SelectItem{Expr: sqlast.CloneExpr(p1)})
		where = &sqlast.BinaryExpr{Op: "<", L: col("", "begin_time"), R: sqlast.CloneExpr(p1)}
	} else {
		items = append(items,
			sqlast.SelectItem{Expr: sqlast.CloneExpr(p2)},
			sqlast.SelectItem{Expr: col("", "end_time")})
		where = &sqlast.BinaryExpr{Op: ">", L: col("", "end_time"), R: sqlast.CloneExpr(p2)}
	}
	if bi {
		items = append(items,
			sqlast.SelectItem{Expr: currentDate()},
			sqlast.SelectItem{Expr: foreverLit()})
	}
	return &sqlast.InsertStmt{Table: target, Source: &sqlast.SelectStmt{
		Items: items,
		From:  []sqlast.TableRef{&sqlast.BaseTable{Name: seqDMLTemp}},
		Where: where,
	}}
}

// seqUpdate applies the SET clauses inside [P1, P2) only, preserving
// the original values outside.
func (tr *Translator) seqUpdate(out *Translation, upd *sqlast.UpdateStmt, begin, end sqlast.Expr) (*Translation, error) {
	if !tr.Info.IsTemporalTable(upd.Table) {
		return nil, refuse(upd.Pos, "sequenced UPDATE requires a temporal target table, %s is not temporal", upd.Table)
	}
	if err := checkRowLocalWhere(upd.Pos, upd.Where); err != nil {
		return nil, err
	}
	alias := upd.Alias
	if alias == "" {
		alias = upd.Table
	}
	bi := tr.Info.IsBitemporalTable(upd.Table)
	affected := andExpr(sqlast.CloneExpr(upd.Where), overlapPred(alias, begin, end))
	if bi {
		affected = andExpr(affected, ttCurrentOverlap(alias))
	}

	cols := tr.Info.TableColumns(upd.Table)
	if cols == nil {
		return nil, refuse(upd.Pos, "unknown temporal table %s", upd.Table)
	}
	dataCols := cols[:len(cols)-2]
	if bi {
		dataCols = cols[:len(cols)-4]
	}

	// Updated portion: SET applied, period clipped to the overlap.
	updItems := make([]sqlast.SelectItem, 0, len(cols))
	for _, c := range dataCols {
		var e sqlast.Expr = col("", c)
		for _, sc := range upd.Sets {
			if strings.EqualFold(sc.Column, c) {
				e = sqlast.CloneExpr(sc.Value)
			}
		}
		updItems = append(updItems, sqlast.SelectItem{Expr: e})
	}
	updItems = append(updItems,
		sqlast.SelectItem{Expr: &sqlast.FuncCall{Name: "LAST_INSTANCE",
			Args: []sqlast.Expr{col("", "begin_time"), sqlast.CloneExpr(begin)}}},
		sqlast.SelectItem{Expr: &sqlast.FuncCall{Name: "FIRST_INSTANCE",
			Args: []sqlast.Expr{col("", "end_time"), sqlast.CloneExpr(end)}}})
	if bi {
		updItems = append(updItems,
			sqlast.SelectItem{Expr: currentDate()},
			sqlast.SelectItem{Expr: foreverLit()})
	}

	out.Setup = append(out.Setup,
		&sqlast.DropTableStmt{Name: seqDMLTemp, IfExists: true},
		&sqlast.CreateTableStmt{Name: seqDMLTemp, Temporary: true, WithData: true,
			AsQuery: &sqlast.SelectStmt{
				Items: []sqlast.SelectItem{{Star: true}},
				From:  []sqlast.TableRef{&sqlast.BaseTable{Name: upd.Table, Alias: alias}},
				Where: sqlast.CloneExpr(affected),
			}})
	out.Setup = append(out.Setup, tr.retireAffected(upd.Table, upd.Alias, alias, affected, bi)...)
	out.Setup = append(out.Setup,
		remnantInsert(upd.Table, dataCols, begin, end, true, bi),
		remnantInsert(upd.Table, dataCols, begin, end, false, bi),
		&sqlast.InsertStmt{Table: upd.Table, Source: &sqlast.SelectStmt{
			Items: updItems,
			From:  []sqlast.TableRef{&sqlast.BaseTable{Name: seqDMLTemp}},
		}},
	)
	out.Main = &sqlast.DropTableStmt{Name: seqDMLTemp, IfExists: true}
	return out, nil
}
