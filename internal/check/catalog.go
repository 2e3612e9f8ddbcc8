package check

import (
	"strings"

	"taupsm/internal/core"
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Catalog is the schema view the analyzer resolves names against: the
// translator's (IsTable covers base tables only, matching the engine's
// effect inference, which treats only base-table DML as impure, while
// TableColumns answers for tables and views alike) plus column types.
type Catalog interface {
	core.SchemaInfo
	// TableColumnKinds returns the runtime value kinds of a table's
	// columns, parallel to TableColumns, or nil when the kinds cannot
	// be determined statically (unknown object, view, derived
	// columns). A KindNull entry marks a single column of unknown
	// type.
	TableColumnKinds(name string) []types.Kind
}

// storageCat adapts *storage.Catalog to the analyzer's Catalog.
type storageCat struct {
	c *storage.Catalog
}

// FromStorage wraps a live storage catalog for analysis.
func FromStorage(c *storage.Catalog) Catalog { return storageCat{c} }

func (s storageCat) IsTable(name string) bool { return s.c.Table(name) != nil }

func (s storageCat) View(name string) sqlast.QueryExpr {
	if v := s.c.View(name); v != nil {
		return v.Query
	}
	return nil
}

func (s storageCat) TableColumns(name string) []string {
	if t := s.c.Table(name); t != nil {
		return t.Schema.Names()
	}
	if v := s.c.View(name); v != nil {
		if len(v.Cols) > 0 {
			return v.Cols
		}
		return deriveQueryCols(v.Query)
	}
	return nil
}

func (s storageCat) TableColumnKinds(name string) []types.Kind {
	t := s.c.Table(name)
	if t == nil {
		return nil
	}
	kinds := make([]types.Kind, len(t.Schema.Cols))
	for i, c := range t.Schema.Cols {
		kinds[i] = c.Type.Kind()
	}
	return kinds
}

func (s storageCat) IsTemporalTable(name string) bool {
	t := s.c.Table(name)
	return t != nil && (t.ValidTime || t.TransactionTime)
}

func (s storageCat) IsTransactionTable(name string) bool {
	t := s.c.Table(name)
	return t != nil && t.TransactionTime
}

func (s storageCat) IsBitemporalTable(name string) bool {
	t := s.c.Table(name)
	return t != nil && t.ValidTime && t.TransactionTime
}

func (s storageCat) Function(name string) *sqlast.CreateFunctionStmt {
	if r := s.c.Routine(name); r != nil && r.Kind == storage.KindFunction {
		return r.Fn
	}
	return nil
}

func (s storageCat) Procedure(name string) *sqlast.CreateProcedureStmt {
	if r := s.c.Routine(name); r != nil && r.Kind == storage.KindProcedure {
		return r.Proc
	}
	return nil
}

// ScriptCatalog is the catalog a script is checked against without
// executing it: a copy of the live catalog (or an empty one) that each
// DDL statement of the script changes through the storage calls the
// engine makes, so `taupsm vet`, Lint and Prepare check every statement
// against the schema the preceding statements would have created.
type ScriptCatalog struct {
	storageCat
	// opaque holds the tables a CREATE TABLE … AS created whose columns
	// cannot be named without running the query (deriveQueryCols); the
	// columns it can name are stored with an empty, unknown type.
	opaque map[string]bool
}

// NewScriptCatalog copies base, or starts empty when base is nil.
func NewScriptCatalog(base *storage.Catalog) *ScriptCatalog {
	c := storage.NewCatalog()
	if base != nil {
		c = base.Clone()
	}
	return &ScriptCatalog{storageCat: storageCat{c}, opaque: map[string]bool{}}
}

func fold(name string) string { return strings.ToLower(name) }

// Apply records the schema effect of one statement (DDL only; all
// other statements are no-ops). An ALTER the engine refuses
// (storage.AddPeriod) changes nothing.
func (s *ScriptCatalog) Apply(stmt sqlast.Stmt) {
	switch x := stmt.(type) {
	case *sqlast.CreateTableStmt:
		var cols []storage.Column
		for _, c := range x.Cols {
			cols = append(cols, storage.Column{Name: c.Name, Type: c.Type})
		}
		if len(x.Cols) == 0 && x.AsQuery != nil {
			for _, name := range deriveQueryCols(x.AsQuery) {
				cols = append(cols, storage.Column{Name: name})
			}
		}
		s.opaque[fold(x.Name)] = len(cols) == 0 && x.AsQuery != nil
		s.c.PutTable(storage.NewTemporalTable(x.Name, cols, x.ValidTime, x.TransactionTime))
	case *sqlast.DropTableStmt:
		s.c.DropTable(x.Name)
		delete(s.opaque, fold(x.Name))
	case *sqlast.AlterAddValidTime:
		if t := s.c.Table(x.Table); t != nil {
			if nt, err := storage.AddPeriod(t, x.Transaction); err == nil {
				s.c.PutTable(nt)
			}
		}
	case *sqlast.CreateViewStmt:
		s.c.PutView(&storage.View{Name: x.Name, Cols: x.Cols, Query: x.Query, Mod: x.Mod})
	case *sqlast.DropViewStmt:
		s.c.DropView(x.Name)
	case *sqlast.CreateFunctionStmt:
		s.c.PutRoutine(&storage.Routine{Kind: storage.KindFunction, Name: x.Name, Fn: x})
	case *sqlast.CreateProcedureStmt:
		s.c.PutRoutine(&storage.Routine{Kind: storage.KindProcedure, Name: x.Name, Proc: x})
	case *sqlast.DropRoutineStmt:
		s.c.DropRoutine(x.Name)
	case *sqlast.TemporalStmt:
		s.Apply(x.Body)
	}
}

func (s *ScriptCatalog) TableColumns(name string) []string {
	if s.opaque[fold(name)] {
		return nil
	}
	return s.storageCat.TableColumns(name)
}

func (s *ScriptCatalog) TableColumnKinds(name string) []types.Kind {
	if s.opaque[fold(name)] {
		return nil
	}
	return s.storageCat.TableColumnKinds(name)
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

// deriveQueryCols statically determines a query's output column names,
// or nil when any column is not statically nameable (stars, unaliased
// expressions, temporal wrappers).
func deriveQueryCols(q sqlast.QueryExpr) []string {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		var out []string
		for _, it := range x.Items {
			switch {
			case it.Star, it.TableStar != "":
				return nil
			case it.Alias != "":
				out = append(out, it.Alias)
			default:
				cr, ok := it.Expr.(*sqlast.ColumnRef)
				if !ok {
					return nil
				}
				out = append(out, cr.Column)
			}
		}
		return out
	case *sqlast.SetOpExpr:
		return deriveQueryCols(x.L)
	}
	return nil
}
