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
func (s storageCat) IsView(name string) bool  { return s.c.View(name) != nil }

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

// scriptTable is a table definition accumulated by ScriptCatalog.
type scriptTable struct {
	cols      []string     // nil when not statically derivable
	kinds     []types.Kind // parallel to cols; nil when types are unknown
	validTime bool
	transTime bool
}

// addCols appends columns to a statically known column list (and to the
// kinds beside it, when those are known too).
func (t *scriptTable) addCols(cols []storage.Column) {
	for _, c := range cols {
		if t.cols != nil {
			t.cols = append(t.cols, c.Name)
		}
		if t.kinds != nil {
			t.kinds = append(t.kinds, c.Type.Kind())
		}
	}
}

// ScriptCatalog is a shadow catalog built by applying a script's DDL
// in order without executing it. `taupsm vet` uses it to check each
// statement against the schema the preceding statements would have
// created. An optional base catalog (e.g. a live database) answers
// lookups the script itself does not define.
type ScriptCatalog struct {
	base    Catalog
	tables  map[string]*scriptTable
	views   map[string][]string
	fns     map[string]*sqlast.CreateFunctionStmt
	procs   map[string]*sqlast.CreateProcedureStmt
	dropped map[string]bool // objects dropped by the script
}

// NewScriptCatalog creates an empty shadow catalog layered over base
// (which may be nil).
func NewScriptCatalog(base Catalog) *ScriptCatalog {
	return &ScriptCatalog{
		base:    base,
		tables:  make(map[string]*scriptTable),
		views:   make(map[string][]string),
		fns:     make(map[string]*sqlast.CreateFunctionStmt),
		procs:   make(map[string]*sqlast.CreateProcedureStmt),
		dropped: make(map[string]bool),
	}
}

func fold(name string) string { return strings.ToLower(name) }

// Apply records the schema effect of one statement (DDL only; all
// other statements are no-ops).
func (s *ScriptCatalog) Apply(stmt sqlast.Stmt) {
	switch x := stmt.(type) {
	case *sqlast.CreateTableStmt:
		t := &scriptTable{validTime: x.ValidTime, transTime: x.TransactionTime}
		if len(x.Cols) > 0 {
			for _, c := range x.Cols {
				t.cols = append(t.cols, c.Name)
				t.kinds = append(t.kinds, c.Type.Kind())
			}
		} else if x.AsQuery != nil {
			t.cols = deriveQueryCols(x.AsQuery)
		}
		t.addCols(storage.PeriodColumns(x.ValidTime, x.TransactionTime))
		s.tables[fold(x.Name)] = t
		delete(s.dropped, fold(x.Name))
	case *sqlast.DropTableStmt:
		delete(s.tables, fold(x.Name))
		s.dropped[fold(x.Name)] = true
	case *sqlast.CreateViewStmt:
		cols := x.Cols
		if cols == nil {
			cols = deriveQueryCols(x.Query)
		}
		s.views[fold(x.Name)] = cols
		delete(s.dropped, fold(x.Name))
	case *sqlast.DropViewStmt:
		delete(s.views, fold(x.Name))
		s.dropped[fold(x.Name)] = true
	case *sqlast.AlterAddValidTime:
		t := s.tables[fold(x.Table)]
		if t == nil {
			if s.base != nil && s.base.IsTable(x.Table) {
				t = &scriptTable{cols: s.base.TableColumns(x.Table), kinds: s.base.TableColumnKinds(x.Table)}
				s.tables[fold(x.Table)] = t
			} else {
				return
			}
		}
		// A valid-time table gaining transaction time becomes bitemporal;
		// any other table with temporal support the engine refuses.
		bitemporal := t.validTime && x.Transaction && !t.transTime
		if !bitemporal && (t.validTime || t.transTime) {
			return
		}
		t.validTime, t.transTime = bitemporal || !x.Transaction, x.Transaction
		layout := storage.PeriodColumns(t.validTime, t.transTime)
		t.addCols(layout[len(layout)-2:])
	case *sqlast.CreateFunctionStmt:
		s.fns[fold(x.Name)] = x
		delete(s.procs, fold(x.Name))
		delete(s.dropped, fold(x.Name))
	case *sqlast.CreateProcedureStmt:
		s.procs[fold(x.Name)] = x
		delete(s.fns, fold(x.Name))
		delete(s.dropped, fold(x.Name))
	case *sqlast.DropRoutineStmt:
		delete(s.fns, fold(x.Name))
		delete(s.procs, fold(x.Name))
		s.dropped[fold(x.Name)] = true
	case *sqlast.TemporalStmt:
		s.Apply(x.Body)
	}
}

func (s *ScriptCatalog) IsTable(name string) bool {
	if _, ok := s.tables[fold(name)]; ok {
		return true
	}
	return !s.dropped[fold(name)] && s.base != nil && s.base.IsTable(name)
}

func (s *ScriptCatalog) IsView(name string) bool {
	if _, ok := s.views[fold(name)]; ok {
		return true
	}
	return !s.dropped[fold(name)] && s.base != nil && s.base.IsView(name)
}

func (s *ScriptCatalog) TableColumns(name string) []string {
	if t, ok := s.tables[fold(name)]; ok {
		return t.cols
	}
	if v, ok := s.views[fold(name)]; ok {
		return v
	}
	if !s.dropped[fold(name)] && s.base != nil {
		return s.base.TableColumns(name)
	}
	return nil
}

func (s *ScriptCatalog) TableColumnKinds(name string) []types.Kind {
	if t, ok := s.tables[fold(name)]; ok {
		return t.kinds
	}
	if _, ok := s.views[fold(name)]; ok {
		return nil
	}
	if !s.dropped[fold(name)] && s.base != nil {
		return s.base.TableColumnKinds(name)
	}
	return nil
}

func (s *ScriptCatalog) IsTemporalTable(name string) bool {
	if t, ok := s.tables[fold(name)]; ok {
		return t.validTime || t.transTime
	}
	return !s.dropped[fold(name)] && s.base != nil && s.base.IsTemporalTable(name)
}

func (s *ScriptCatalog) IsTransactionTable(name string) bool {
	if t, ok := s.tables[fold(name)]; ok {
		return t.transTime
	}
	return !s.dropped[fold(name)] && s.base != nil && s.base.IsTransactionTable(name)
}

func (s *ScriptCatalog) IsBitemporalTable(name string) bool {
	if t, ok := s.tables[fold(name)]; ok {
		return t.validTime && t.transTime
	}
	return !s.dropped[fold(name)] && s.base != nil && s.base.IsBitemporalTable(name)
}

func (s *ScriptCatalog) Function(name string) *sqlast.CreateFunctionStmt {
	if f, ok := s.fns[fold(name)]; ok {
		return f
	}
	if _, ok := s.procs[fold(name)]; ok {
		return nil
	}
	if !s.dropped[fold(name)] && s.base != nil {
		return s.base.Function(name)
	}
	return nil
}

func (s *ScriptCatalog) Procedure(name string) *sqlast.CreateProcedureStmt {
	if p, ok := s.procs[fold(name)]; ok {
		return p
	}
	if _, ok := s.fns[fold(name)]; ok {
		return nil
	}
	if !s.dropped[fold(name)] && s.base != nil {
		return s.base.Procedure(name)
	}
	return nil
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
