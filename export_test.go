package taupsm

import (
	"errors"

	"taupsm/internal/core"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/storage"
	"taupsm/internal/temporal"
)

// PaperDB is the paper's running example (paperDB): nine temporal rows
// and get_author_name().
var PaperDB = paperDB

// MainSummary is the effect summary of a translation's main statement:
// what the plan records and EXPLAIN's read and write rows come from.
func (db *DB) MainSummary(t *core.Translation) *core.Summary { return db.mainSummary(t) }

// SetFigure8SQL makes MAX slicing compute its constant periods by
// executing the paper's Figure-8 SQL script instead of the native
// computation — the reference path the tests compare the native one
// against.
func (db *DB) SetFigure8SQL(on bool) { db.figure8SQL = on }

// QueryUnprepared evaluates one sequenced query under MAX the way Query
// does, serially, except that the engine session loads every source
// afresh (engine.LoadAfresh: no plan's source memo is read or filled) —
// the reference the tests compare memo-served execution against.
func (db *DB) QueryUnprepared(src string) (*Result, error) {
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	t, err := db.tr.Translate(stmt, Max)
	if err != nil {
		return nil, err
	}
	for _, r := range t.Routines {
		if _, err := db.eng.ExecStmt(r); err != nil {
			return nil, err
		}
	}
	ctx, err := db.evalPeriod(t.ContextBegin, t.ContextEnd)
	if err != nil {
		return nil, err
	}
	cp := db.computeCP(t, ctx)
	ses := db.eng.NewSession()
	ses.LoadAfresh()
	res, err := ses.ExecStmtWithTables(t.Main, map[string]*storage.Table{"taupsm_cp": cp})
	return wrapResult(res), err
}

// SetVerdictReuse lets MAX share a conjunct's verdict over a run of
// constant periods (the engine's default), or — off — test every
// conjunct on every period: the reference the tests compare sharing
// against.
func (db *DB) SetVerdictReuse(on bool) { db.eng.SetVerdictReuse(on) }

// ProbedFeatures reads the §VII-F features of a sequenced statement off
// an explicit PERST translation of it, made whatever the context — the
// reference Auto, which translates only when clause (c) does not
// decide, is held against. perr is the translation's error.
func (db *DB) ProbedFeatures(src string) (f core.Features, perr error, err error) {
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		return f, nil, err
	}
	ts := stmt.(*sqlast.TemporalStmt)
	f = core.Features{PerstTransformable: true, TemporalRows: db.eng.Cat.TemporalRows(), ContextDays: 1 << 30}
	var ctx temporal.Period
	if ts.Period != nil {
		ctx, _ = db.evalPeriod(ts.Period.Begin, ts.Period.End)
		f.ContextDays = ctx.End - ctx.Begin
	}
	probe, perr := db.TranslateStmt(stmt, PerStatement)
	switch {
	case errors.Is(perr, core.ErrNotTransformable):
		f.PerstTransformable = false
	case perr == nil:
		f.UsesPerPeriodCursor = probe.UsesPerPeriodCursor
		if est, ok := db.statsEstimates(probe.TemporalTables, probe.Dim, ts.Period == nil, ctx.Begin, ctx.End); ok {
			f.HasStats, f.EstConstantPeriods, f.EstRows = true, est.ConstantPeriods, est.Rows
		}
	}
	return f, perr, nil
}
