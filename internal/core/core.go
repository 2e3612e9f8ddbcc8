// Package core implements the paper's contribution: the stratum that
// translates Temporal SQL/PSM — queries and stored routines carrying
// the SQL/Temporal statement modifiers VALIDTIME and NONSEQUENCED
// VALIDTIME — into conventional SQL/PSM over tables with explicit
// begin_time/end_time columns.
//
// Three semantics are implemented (paper §IV):
//
//   - current (no modifier): every WHERE over a temporal table gains a
//     begin_time <= CURRENT_DATE AND CURRENT_DATE < end_time predicate,
//     in the statement and in curr_-prefixed clones of every reachable
//     routine; current modifications maintain validity periods.
//   - sequenced (VALIDTIME [(bt, et)]): two slicing strategies —
//     maximally-fragmented slicing (§V) and per-statement slicing (§VI).
//   - nonsequenced (NONSEQUENCED VALIDTIME): timestamps are ordinary
//     columns; the statement passes through with routines unchanged.
package core

import (
	"errors"
	"fmt"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
	"taupsm/internal/types"
)

// Strategy selects how sequenced statements are sliced.
type Strategy int

// Slicing strategies.
const (
	// StrategyAuto asks for the §VII-F heuristic. It is a setting of
	// the stratum, which decides (with Features and ChooseExplained,
	// heuristic.go) and hands the translator one of the two below; it
	// is not a way to slice.
	StrategyAuto Strategy = iota
	// StrategyMax is maximally-fragmented slicing: evaluate once per
	// constant period. Always applicable.
	StrategyMax
	// StrategyPerStatement is per-statement slicing: routines are
	// rewritten to operate on temporal tables. Not complete.
	StrategyPerStatement
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyMax:
		return "MAX"
	case StrategyPerStatement:
		return "PERST"
	}
	return "AUTO"
}

// ErrNotTransformable reports that per-statement slicing cannot handle
// a construct (e.g. the non-nested FETCH of τPSM q17b); callers fall
// back to maximally-fragmented slicing, which always applies.
var ErrNotTransformable = errors.New("per-statement slicing cannot transform this statement")

// ErrSequencedModifierInRoutine reports a temporal modifier inside a
// routine invoked from a sequenced or current context, which the paper
// defines as a semantic error (§IV-A).
var ErrSequencedModifierInRoutine = errors.New(
	"a routine containing a temporal statement modifier may only be invoked from a nonsequenced context")

// ErrTransactionTimeManual reports a modification that would write
// transaction time by hand: the stratum stamps it, and only current
// (and, on bitemporal tables, sequenced valid-time) modifications may
// touch a table that carries it.
var ErrTransactionTimeManual = errors.New("transaction time is system-maintained and append-only")

// Refusal is a translator error at the source position of the node it
// refused. Its text is Err's; the static analyzer (internal/check),
// whose temporal pass is a dry run of the translator, reads Pos with
// errors.As to anchor the diagnostic.
type Refusal struct {
	Pos sqlscan.Pos
	Err error
}

func (r *Refusal) Error() string { return r.Err.Error() }
func (r *Refusal) Unwrap() error { return r.Err }

// refuse builds the Refusal of the node at pos.
func refuse(pos sqlscan.Pos, format string, args ...any) error {
	return &Refusal{Pos: pos, Err: fmt.Errorf(format, args...)}
}

// SchemaInfo is what the translator needs to know about the database
// schema. The engine's catalog, *storage.Catalog, implements it; the
// static analyzer reads the same catalog through check.Catalog, which
// adds column kinds.
type SchemaInfo interface {
	// IsTemporalTable reports whether name is a table with temporal
	// (valid-time or transaction-time) support, IsTransactionTable
	// whether it carries transaction time, IsBitemporalTable both.
	IsTemporalTable(name string) bool
	IsTransactionTable(name string) bool
	IsBitemporalTable(name string) bool
	// TableColumns returns the column names of a table, view or system
	// table, or nil.
	TableColumns(name string) []string
	// IsTable reports whether name is a stored base table.
	IsTable(name string) bool
	// ViewQuery returns the defining query of a view, or nil when name is
	// not one.
	ViewQuery(name string) sqlast.QueryExpr
	// Function returns the definition of a stored SQL function, or nil.
	Function(name string) *sqlast.CreateFunctionStmt
	// Procedure returns the definition of a stored procedure, or nil.
	Procedure(name string) *sqlast.CreateProcedureStmt
}

// Translation is the conventional SQL/PSM a temporal statement compiles
// to.
type Translation struct {
	// Strategy actually used (meaningful for sequenced statements).
	Strategy Strategy
	// Dim is the dimension a sequenced statement slices along
	// (DimValid unless the statement modifier named TRANSACTIONTIME).
	Dim sqlast.TemporalDimension
	// Routines are transformed routine definitions (curr_/max_/ps_
	// clones) that must exist before Main runs. Idempotent: callers
	// may skip ones already registered.
	Routines []sqlast.Stmt
	// Setup statements run before Main (e.g. the Figure-8 ts/cp
	// construction for MAX slicing, or the materialize/delete/re-insert
	// sequence of sequenced modifications).
	Setup []sqlast.Stmt
	// NeedsConstantPeriods marks MAX-sliced queries whose Setup builds
	// the taupsm_ts/taupsm_cp tables; executors may substitute a native
	// constant-period computation for that Setup. Other translations'
	// Setup statements must always run.
	NeedsConstantPeriods bool
	// Main is the rewritten statement.
	Main sqlast.Stmt
	// Teardown statements run after Main (dropping temp objects).
	Teardown []sqlast.Stmt

	// Context is the sequenced temporal context [Begin, End) as
	// expressions (literals for defaulted contexts).
	ContextBegin, ContextEnd sqlast.Expr

	// TemporalTables are the temporal tables reachable from the
	// statement (directly or through routines), in first-seen order.
	TemporalTables []string

	// UsesPerPeriodCursor reports that the PERST translation processes
	// cursors on a per-period basis via auxiliary tables (the
	// heuristic's clause (b), paper §VII-F).
	UsesPerPeriodCursor bool
}

// SQL renders the complete translation as a script.
func (t *Translation) SQL() string {
	var stmts []sqlast.Stmt
	stmts = append(stmts, t.Routines...)
	stmts = append(stmts, t.Setup...)
	if t.Main != nil {
		stmts = append(stmts, t.Main)
	}
	stmts = append(stmts, t.Teardown...)
	return sqlast.Script(stmts)
}

// Translator converts Temporal SQL/PSM statements to conventional
// SQL/PSM against a schema.
type Translator struct {
	Info SchemaInfo
}

// NewTranslator returns a Translator over the given schema.
func NewTranslator(info SchemaInfo) *Translator {
	return &Translator{Info: info}
}

// defaultContext is the whole-timeline temporal context used when a
// sequenced statement has no explicit period.
func defaultContext() (sqlast.Expr, sqlast.Expr) {
	return &sqlast.Literal{Val: types.NewDate(types.MustDate(1, 1, 1))},
		&sqlast.Literal{Val: types.NewDate(types.Forever)}
}

// Translate rewrites one Temporal SQL/PSM statement. Statements without
// a modifier get current semantics; VALIDTIME statements are sliced
// with the given strategy, StrategyMax or StrategyPerStatement (the
// translator never chooses: under StrategyAuto the stratum decides first
// and asks for what it decided); NONSEQUENCED VALIDTIME statements pass
// through, and for them and current statements the strategy is ignored. It consults the schema and changes nothing, so a dry run —
// the analyzer's temporal pass — is a call whose result is dropped.
func (tr *Translator) Translate(stmt sqlast.Stmt, strategy Strategy) (*Translation, error) {
	if v, ok := stmt.(*sqlast.CreateViewStmt); ok && v.Mod != sqlast.ModCurrent {
		return tr.translateView(v)
	}
	ts, ok := stmt.(*sqlast.TemporalStmt)
	if !ok {
		return tr.translateCurrent(stmt)
	}
	switch ts.Mod {
	case sqlast.ModCurrent:
		return tr.translateCurrent(ts.Body)
	case sqlast.ModNonsequenced:
		return tr.translateNonsequenced(ts.Body, ts.Dim, ts.Ctx)
	case sqlast.ModSequenced:
		var begin, end sqlast.Expr
		if ts.Period != nil {
			begin, end = periodBounds(ts.Period)
		} else {
			begin, end = defaultContext()
		}
		ctxBegin, ctxEnd := ctxPeriod(ts.Ctx)
		return tr.slice(ts.Body, begin, end, strategy, ts.Dim, ctxBegin, ctxEnd)
	}
	return nil, fmt.Errorf("unknown temporal modifier %v", ts.Mod)
}

// ctxPeriod extracts the explicit secondary-dimension context period;
// (nil, nil) means the default context, the current instant.
func ctxPeriod(ctx *sqlast.DimContext) (sqlast.Expr, sqlast.Expr) {
	if ctx == nil || ctx.Period == nil {
		return nil, nil
	}
	return periodBounds(ctx.Period)
}

// periodBounds returns a context period's bounds, a literal read as the
// DATE it converts to (types.Convert, as the stratum reads a bound:
// evalPeriod) so that a statement clipped to it returns DATE period
// columns under every strategy. Any other bound is returned as it is.
func periodBounds(p *sqlast.PeriodSpec) (sqlast.Expr, sqlast.Expr) {
	date := func(e sqlast.Expr) sqlast.Expr {
		if lit, ok := e.(*sqlast.Literal); ok && lit.Val.Kind != types.KindDate {
			if d, err := types.Convert(lit.Val, types.KindDate); err == nil && !d.IsNull() {
				return &sqlast.Literal{Val: d}
			}
		}
		return e
	}
	return date(p.Begin), date(p.End)
}

// slice translates a sequenced statement under MAX or PERST: what the two
// strategies share — view definitions, modifications, the reachability
// analysis and its checks, the query over no table carrying the sliced
// dimension — and then the strategy's own rewrite of a query.
func (tr *Translator) slice(body sqlast.Stmt, begin, end sqlast.Expr, strategy Strategy, dim sqlast.TemporalDimension, ctxBegin, ctxEnd sqlast.Expr) (*Translation, error) {
	switch v := body.(type) {
	case *sqlast.CreateViewStmt:
		if dim == sqlast.DimTransaction {
			return nil, refuse(v.Pos, "sequenced transaction-time views are not supported")
		}
		sv := sqlast.CloneStmt(v).(*sqlast.CreateViewStmt)
		sv.Mod = sqlast.ModSequenced
		return tr.translateView(sv)
	case *sqlast.InsertStmt, *sqlast.UpdateStmt, *sqlast.DeleteStmt:
		return tr.sequencedDML(body, begin, end, strategy, dim, ctxBegin, ctxEnd)
	}
	a := tr.analyze(body, dim)
	if err := tr.checkNoInnerModifiers(a); err != nil {
		return nil, err
	}
	if err := tr.checkExplicitContext(a, dim, ctxBegin); err != nil {
		return nil, err
	}
	if _, ok := body.(sqlast.QueryExpr); !ok {
		if strategy == StrategyPerStatement {
			return nil, refuse(sqlast.PosOf(body), "%w: only queries and modifications are supported under %s", ErrNotTransformable, dim.Keyword())
		}
		return nil, refuse(sqlast.PosOf(body), "maximally-fragmented slicing: unsupported statement %T under %s", body, dim.Keyword())
	}
	out := &Translation{
		Strategy: strategy, Dim: dim, ContextBegin: begin, ContextEnd: end,
		TemporalTables: a.temporalTables,
	}
	main := sqlast.CloneStmt(body).(sqlast.QueryExpr)
	if len(a.temporalTables) == 0 {
		// After the context filter pins any orthogonal-dimension tables,
		// the result holds over the whole context.
		tr.addContextFilters(main, dim, ctxBegin, ctxEnd)
		prependPeriodItems(main, sqlast.CloneExpr(begin), sqlast.CloneExpr(end))
		out.Main = main.(sqlast.Stmt)
		return out, nil
	}
	for _, sel := range topSelects(main) {
		if sel.Limit != nil {
			// Either strategy would cut the sliced result as a whole — MAX after
			// the first constant periods, PERST after the first fragments —
			// where snapshot semantics cuts each instant's result.
			return nil, refuse(sel.Pos, "sequenced FETCH FIRST over temporal data is not supported: it would limit the rows of the whole context, not of each instant")
		}
	}
	if err := tr.refuseOuterJoins(body, dim); err != nil {
		return nil, err
	}
	for _, rn := range a.routines {
		if err := tr.refuseOuterJoins(a.routine(rn).def, dim); err != nil {
			return nil, fmt.Errorf("routine %s: %w", rn, err)
		}
	}
	if strategy == StrategyMax {
		return tr.maxSlice(out, a, main, ctxBegin, ctxEnd)
	}
	return tr.perStatement(out, a, main, ctxBegin, ctxEnd)
}

// refuseOuterJoins refuses, for a sequenced evaluation of stmt, a LEFT
// JOIN whose null-supplying side is a table carrying the sliced
// dimension. Both strategies would restrict that table after the join —
// MAX to the instant, PERST to the overlap with the other operands — and
// so drop the preserved side's row at every instant at which nothing
// matches it, where snapshot semantics NULL-extends it.
func (tr *Translator) refuseOuterJoins(stmt sqlast.Node, dim sqlast.TemporalDimension) (err error) {
	tr.eachTemporalEntry(stmt, func(fe fromEntry) {
		if err == nil && fe.nullSupplied && tr.carriesDim(fe.Name, dim) {
			err = refuse(fe.Pos, "sequenced LEFT JOIN onto temporal table %s is not supported: at an instant at which %s has no matching row the preserved row would be dropped, not NULL-extended", fe.Name, fe.Name)
		}
	})
	return err
}

// topSelects lists the top-level SELECT blocks of a query tree, set
// operators descended, left to right.
func topSelects(q sqlast.QueryExpr) []*sqlast.SelectStmt {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		return []*sqlast.SelectStmt{x}
	case *sqlast.SetOpExpr:
		return append(topSelects(x.L), topSelects(x.R)...)
	}
	return nil
}

// translateNonsequenced strips the modifier: timestamps are ordinary
// columns the user manipulates explicitly. Inner sequenced queries in
// reachable routines are legal in this context (paper §IV-A); routines
// are used as stored, with any inner NONSEQUENCED modifiers stripped.
// On bitemporal tables only the statement's own dimension is exposed as
// ordinary columns; the orthogonal transaction-time pair stays
// system-maintained, and an `AND <dim> (...)` clause filters tables
// carrying the orthogonal dimension to that context.
func (tr *Translator) translateNonsequenced(body sqlast.Stmt, dim sqlast.TemporalDimension, ctx *sqlast.DimContext) (*Translation, error) {
	a := tr.analyze(body, dimAny)
	if err := tr.checkNoManualTransactionDML(body); err != nil {
		return nil, err
	}
	if err := tr.checkNonseqBitemporalDML(body); err != nil {
		return nil, err
	}
	out := &Translation{Main: sqlast.CloneStmt(body), TemporalTables: a.temporalTables, Dim: dim}
	if ins, ok := out.Main.(*sqlast.InsertStmt); ok && !ins.VarTarget && tr.Info.IsBitemporalTable(ins.Table) {
		if err := tr.appendNonseqTT(ins); err != nil {
			return nil, err
		}
	}
	if ctx != nil {
		ctxBegin, ctxEnd := ctxPeriod(ctx)
		tr.addContextFilters(out.Main, dim, ctxBegin, ctxEnd)
	}
	// Inner sequenced statements inside routines would need their own
	// sequenced rewrite; plain SPJ ones are rewritten, others rejected.
	for _, rn := range a.routines {
		if a.routine(rn).b.modifier {
			routines, err := tr.nonseqRoutines(a, rn)
			if err != nil {
				return nil, err
			}
			out.Routines = append(out.Routines, routines...)
			renameCalls(out.Main, a, "nonseq_", func(name string) bool { return a.routine(name).b.modifier })
		}
	}
	return out, nil
}
