package taupsm

import (
	"taupsm/internal/core"
	"taupsm/internal/sqlparser"
	"taupsm/internal/storage"
)

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
