package wal

import (
	"fmt"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/storage"
)

// Apply replays one effect against a catalog. Effects are structural
// and physical — no query re-evaluation — so replay is deterministic
// regardless of the clock or catalog contents at replay time. Semantic
// mismatches (a row effect against a missing table, an out-of-range
// index) mean the log does not describe this catalog; they error rather
// than panic so corrupt-but-checksum-valid input degrades cleanly.
func Apply(cat *storage.Catalog, e storage.Effect) error {
	switch e.Kind {
	case storage.EffInsert:
		t := cat.Table(e.Name)
		if t == nil {
			return fmt.Errorf("wal: insert into missing table %s", e.Name)
		}
		return t.Insert(e.Row)
	case storage.EffUpdate:
		t := cat.Table(e.Name)
		if t == nil {
			return fmt.Errorf("wal: update of missing table %s", e.Name)
		}
		if e.Index < 0 || e.Index >= len(t.Rows) || len(e.Row) != len(t.Schema.Cols) {
			return fmt.Errorf("wal: update of %s out of range", e.Name)
		}
		t.Rows[e.Index] = e.Row
		t.Bump()
		return nil
	case storage.EffDelete:
		t := cat.Table(e.Name)
		if t == nil {
			return fmt.Errorf("wal: delete from missing table %s", e.Name)
		}
		if e.Index < 0 || e.Index >= len(t.Rows) {
			return fmt.Errorf("wal: delete from %s out of range", e.Name)
		}
		t.Rows = append(t.Rows[:e.Index], t.Rows[e.Index+1:]...)
		t.Bump()
		return nil
	case storage.EffPutTable:
		cols := make([]storage.Column, 0, len(e.Cols))
		for _, c := range e.Cols {
			cols = append(cols, storage.Column{Name: c.Name, Type: sqlast.TypeName{
				Base: c.Base, Length: c.Length, Scale: c.Scale,
			}})
		}
		t := storage.NewTable(e.Name, storage.NewSchema(cols))
		t.ValidTime = e.ValidTime
		t.TransactionTime = e.TransactionTime
		cat.PutTable(t)
		return nil
	case storage.EffDropTable:
		cat.DropTable(e.Name)
		return nil
	case storage.EffPutView:
		stmt, err := sqlparser.ParseStatement(e.SQL)
		if err != nil {
			return fmt.Errorf("wal: view %s: %w", e.Name, err)
		}
		v, ok := stmt.(*sqlast.CreateViewStmt)
		if !ok {
			return fmt.Errorf("wal: view %s: definition is %T, not CREATE VIEW", e.Name, stmt)
		}
		cat.PutView(&storage.View{Name: v.Name, Cols: v.Cols, Query: v.Query, Mod: v.Mod})
		return nil
	case storage.EffDropView:
		cat.DropView(e.Name)
		return nil
	case storage.EffPutRoutine:
		stmt, err := sqlparser.ParseStatement(e.SQL)
		if err != nil {
			return fmt.Errorf("wal: routine %s: %w", e.Name, err)
		}
		switch s := stmt.(type) {
		case *sqlast.CreateFunctionStmt:
			cat.PutRoutine(&storage.Routine{Kind: storage.KindFunction, Name: s.Name, Fn: s})
		case *sqlast.CreateProcedureStmt:
			cat.PutRoutine(&storage.Routine{Kind: storage.KindProcedure, Name: s.Name, Proc: s})
		default:
			return fmt.Errorf("wal: routine %s: definition is %T, not CREATE FUNCTION/PROCEDURE", e.Name, stmt)
		}
		return nil
	case storage.EffDropRoutine:
		cat.DropRoutine(e.Name)
		return nil
	case storage.EffAnalyze:
		if cat.Table(e.Name) == nil {
			return fmt.Errorf("wal: analyze of missing table %s", e.Name)
		}
		return nil
	}
	return fmt.Errorf("wal: unknown effect kind %d", e.Kind)
}

// applyAll replays an effect batch in order.
func applyAll(cat *storage.Catalog, effects []storage.Effect) error {
	for _, e := range effects {
		if err := Apply(cat, e); err != nil {
			return err
		}
	}
	return nil
}

// renderViewSQL renders a stored view back to its CREATE VIEW source
// for snapshotting.
func renderViewSQL(v *storage.View) string {
	s := &sqlast.CreateViewStmt{Name: v.Name, Cols: v.Cols, Query: v.Query, Mod: v.Mod}
	return s.SQL()
}
