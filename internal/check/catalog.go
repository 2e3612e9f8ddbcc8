package check

import (
	"strings"

	"taupsm/internal/core"
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Catalog is the schema the analyzer resolves names against: the
// translator's, plus column kinds. The engine's *storage.Catalog is
// one, and so is a ScriptCatalog, a copy of it.
type Catalog interface {
	core.SchemaInfo
	// TableColumnKinds returns the runtime value kinds of a table's
	// columns, parallel to TableColumns, or nil when the kinds cannot
	// be determined statically (unknown object, view, derived
	// columns). A KindNull entry marks a single column of unknown
	// type.
	TableColumnKinds(name string) []types.Kind
}

// ScriptCatalog is the catalog a script is checked against without
// executing it: a copy of the live catalog (or an empty one) that each
// DDL statement of the script changes through the storage calls the
// engine makes, so `taupsm vet`, Lint and Prepare check every statement
// against the schema the preceding statements would have created.
type ScriptCatalog struct {
	*storage.Catalog
}

// NewScriptCatalog copies base, or starts empty when base is nil.
func NewScriptCatalog(base *storage.Catalog) *ScriptCatalog {
	c := storage.NewCatalog()
	if base != nil {
		c = base.Clone()
	}
	return &ScriptCatalog{c}
}

func fold(name string) string { return strings.ToLower(name) }

// Apply records the schema effect of one statement (DDL only; all
// other statements are no-ops). An ALTER the engine refuses
// (storage.AddPeriod) changes nothing.
func (s *ScriptCatalog) Apply(stmt sqlast.Stmt) {
	switch x := stmt.(type) {
	case *sqlast.CreateTableStmt:
		// A CREATE TABLE … AS whose columns the catalog cannot name reads
		// a relation Exec does not find either: it creates nothing.
		if t, opaque := created(x, relations{Catalog: s}); !opaque {
			s.Catalog.PutTable(t)
		}
	case *sqlast.DropTableStmt:
		s.Catalog.DropTable(x.Name)
	case *sqlast.AlterAddValidTime:
		if t := s.Catalog.Table(x.Table); t != nil {
			if nt, err := storage.AddPeriod(t, x.Transaction); err == nil {
				s.Catalog.PutTable(nt)
			}
		}
	case *sqlast.CreateViewStmt:
		s.Catalog.PutView(&storage.View{Name: x.Name, Cols: x.Cols, Query: x.Query, Mod: x.Mod})
	case *sqlast.DropViewStmt:
		s.Catalog.DropView(x.Name)
	case *sqlast.CreateFunctionStmt:
		s.Catalog.PutRoutine(&storage.Routine{Kind: storage.KindFunction, Name: x.Name, Fn: x})
	case *sqlast.CreateProcedureStmt:
		s.Catalog.PutRoutine(&storage.Routine{Kind: storage.KindProcedure, Name: x.Name, Proc: x})
	case *sqlast.DropRoutineStmt:
		s.Catalog.DropRoutine(x.Name)
	case *sqlast.TemporalStmt:
		s.Apply(x.Body)
	}
}

// created is the table a CREATE TABLE makes, the columns of its query
// named from rels with an empty, unknown type; opaque when rels cannot
// name them.
func created(x *sqlast.CreateTableStmt, rels storage.Relations) (t *storage.Table, opaque bool) {
	var cols []storage.Column
	for _, c := range x.Cols {
		cols = append(cols, storage.Column{Name: c.Name, Type: c.Type})
	}
	if len(x.Cols) == 0 && x.AsQuery != nil {
		names, _ := storage.QueryColumns(rels, x.AsQuery)
		for _, name := range names {
			cols = append(cols, storage.Column{Name: name})
		}
	}
	return storage.NewTemporalTable(x.Name, cols, x.ValidTime, x.TransactionTime), len(cols) == 0 && x.AsQuery != nil
}

// withRoutine overlays the routine currently being defined onto a
// catalog, so self-recursive definitions resolve at CREATE time.
type withRoutine struct {
	Catalog
	name string
	fn   *sqlast.CreateFunctionStmt
	proc *sqlast.CreateProcedureStmt
}

func (w withRoutine) Function(name string) *sqlast.CreateFunctionStmt {
	if strings.EqualFold(name, w.name) {
		return w.fn
	}
	return w.Catalog.Function(name)
}

func (w withRoutine) Procedure(name string) *sqlast.CreateProcedureStmt {
	if strings.EqualFold(name, w.name) {
		return w.proc
	}
	return w.Catalog.Procedure(name)
}
