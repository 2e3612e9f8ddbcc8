// Package storage provides the in-memory relational storage taupsm
// executes against: schemas, tables (including temporal tables carrying
// begin_time/end_time columns), views, stored routines, and lazily
// built hash indexes that the engine uses for equality lookups.
package storage

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// Column is one column of a stored table.
type Column struct {
	Name string
	Type sqlast.TypeName
}

// Schema is an ordered list of columns with name lookup.
type Schema struct {
	Cols   []Column
	byName map[string]int
	names  []string
}

// NewSchema builds a schema from columns; names are matched
// case-insensitively.
func NewSchema(cols []Column) *Schema {
	s := &Schema{Cols: cols, byName: make(map[string]int, len(cols)), names: make([]string, len(cols))}
	for i, c := range cols {
		s.byName[strings.ToLower(c.Name)] = i
		s.names[i] = c.Name
	}
	return s
}

// Index returns the ordinal of the named column, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Names returns the column names in order. The slice is built once
// and shared by every call — DDL replaces a table's schema, it never
// edits one — so callers must not modify it, and two results of the
// same schema are identical down to the backing array.
func (s *Schema) Names() []string { return s.names }

// Kinds returns the columns' value kinds, in order.
func (s *Schema) Kinds() []types.Kind {
	kinds := make([]types.Kind, len(s.Cols))
	for i, c := range s.Cols {
		kinds[i] = c.Type.Kind()
	}
	return kinds
}

// Table is an in-memory table. For temporal tables (ValidTime true) the
// final two columns are begin_time and end_time (DATE), maintained by
// DDL when the table is created or altered with valid-time support.
//
// Concurrency contract: any number of goroutines may read (including
// Lookup and Overlapping, which lazily build indexes under the table's
// internal lock), but writers (Insert, Bump, direct Rows mutation) need
// exclusive access — the same reader/writer discipline as Catalog.
type Table struct {
	Name      string
	Schema    *Schema
	Rows      [][]types.Value
	ValidTime bool
	// TransactionTime marks an audit table: the same physical
	// begin_time/end_time layout as a valid-time table, but the
	// periods are system-maintained (set from CURRENT_DATE by the
	// current-semantics transform) and may not be written manually.
	TransactionTime bool
	Temporary       bool

	version int64

	mu      sync.RWMutex       // guards lazily built indexes and endpoint views
	indexes map[int]*hashIndex // made by the first Lookup
	ival    *intervalIndex
	ends    []*Endpoints // one per period-column pair asked for
}

type hashIndex struct {
	version int64
	m       map[string][]int
}

// NewTable creates an empty table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// Version returns the table's mutation counter; it changes on every
// Insert or Bump, so a (*Table, Version) pair identifies a table state
// (a dropped-and-recreated table is a new *Table whose version restarts
// at zero).
func (t *Table) Version() int64 { return t.version }

// Insert appends a row; the row length must match the schema.
func (t *Table) Insert(row []types.Value) error {
	if len(row) != len(t.Schema.Cols) {
		return fmt.Errorf("table %s: row has %d values, schema has %d columns",
			t.Name, len(row), len(t.Schema.Cols))
	}
	t.Rows = append(t.Rows, row)
	t.version++
	return nil
}

// Bump invalidates indexes after in-place modification of Rows.
func (t *Table) Bump() { t.version++ }

// Lookup returns the ordinals of rows whose column col equals v,
// building (or rebuilding) a hash index on demand. The returned slice
// must not be modified. Safe for concurrent readers.
func (t *Table) Lookup(col int, v types.Value) []int {
	var scratch [64]byte
	key := v.AppendHashKey(scratch[:0])
	t.mu.RLock()
	idx := t.indexes[col]
	if idx != nil && idx.version == t.version {
		t.mu.RUnlock()
		return idx.m[string(key)]
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	idx = t.indexes[col]
	if idx == nil || idx.version != t.version {
		if t.indexes == nil {
			t.indexes = make(map[int]*hashIndex)
		}
		idx = &hashIndex{version: t.version, m: make(map[string][]int, len(t.Rows))}
		var kb []byte
		for i, r := range t.Rows {
			kb = r[col].AppendHashKey(kb[:0])
			idx.m[string(kb)] = append(idx.m[string(kb)], i)
		}
		t.indexes[col] = idx
	}
	return idx.m[string(key)]
}

// PeriodColumns is the physical layout of temporal support: the DATE
// columns a table with the given support carries after its data
// columns — begin_time/end_time for either dimension alone, followed by
// tt_begin_time/tt_end_time on a bitemporal table. NewTemporalTable
// appends all of them; AddPeriod appends the last pair of the support
// the table ends up with.
func PeriodColumns(validTime, transactionTime bool) []Column {
	date := sqlast.TypeName{Base: "DATE"}
	switch {
	case validTime && transactionTime:
		return []Column{{"begin_time", date}, {"end_time", date}, {"tt_begin_time", date}, {"tt_end_time", date}}
	case validTime || transactionTime:
		return []Column{{"begin_time", date}, {"end_time", date}}
	}
	return nil
}

// NewTemporalTable is CREATE TABLE: an empty table of the data columns
// followed by the period columns of the given temporal support. The
// engine and the static analyzer's script catalog both create tables
// with it.
func NewTemporalTable(name string, data []Column, validTime, transactionTime bool) *Table {
	cols := append(data[:len(data):len(data)], PeriodColumns(validTime, transactionTime)...)
	t := NewTable(name, NewSchema(cols))
	t.ValidTime, t.TransactionTime = validTime, transactionTime
	return t
}

// AddPeriod is ALTER TABLE … ADD VALIDTIME (transaction false) or ADD
// TRANSACTIONTIME (true): an empty table named like t, with t's columns
// and temporary flag, the support t ends up with, and the period pair
// that support appends. A valid-time table gaining transaction time
// becomes bitemporal; any other table with temporal support is refused.
// The caller carries the rows over.
func AddPeriod(t *Table, transaction bool) (*Table, error) {
	bitemporal := t.ValidTime && transaction && !t.TransactionTime
	if !bitemporal && (t.ValidTime || t.TransactionTime) {
		return nil, fmt.Errorf("table %s already has temporal support", t.Name)
	}
	validTime := bitemporal || !transaction
	cols, layout := t.Schema.Cols, PeriodColumns(validTime, transaction)
	nt := NewTable(t.Name, NewSchema(append(cols[:len(cols):len(cols)], layout[len(layout)-2:]...)))
	nt.ValidTime, nt.TransactionTime, nt.Temporary = validTime, transaction, t.Temporary
	return nt, nil
}

// Bitemporal reports whether the table carries both periods: the
// valid-time begin_time/end_time pair followed by the transaction-time
// tt_begin_time/tt_end_time pair as the final four columns.
func (t *Table) Bitemporal() bool { return t.ValidTime && t.TransactionTime }

// BeginCol returns the ordinal of the primary period's begin column:
// begin_time, which is valid time on valid-time and bitemporal tables
// and transaction time on transaction-time-only tables (both layouts
// share the column names).
func (t *Table) BeginCol() int {
	if t.Bitemporal() {
		return len(t.Schema.Cols) - 4
	}
	return len(t.Schema.Cols) - 2
}

// EndCol returns the ordinal of the primary period's end column.
func (t *Table) EndCol() int {
	if t.Bitemporal() {
		return len(t.Schema.Cols) - 3
	}
	return len(t.Schema.Cols) - 1
}

// TTBeginCol returns the ordinal of tt_begin_time on a bitemporal
// table (on transaction-time-only tables the pair is begin_time /
// end_time, reported by BeginCol/EndCol).
func (t *Table) TTBeginCol() int { return len(t.Schema.Cols) - 2 }

// TTEndCol returns the ordinal of tt_end_time on a bitemporal table.
func (t *Table) TTEndCol() int { return len(t.Schema.Cols) - 1 }

// View is a named stored query, optionally with a temporal modifier on
// its body (used by generated MAX-slicing code for the cp view).
type View struct {
	Name  string
	Cols  []string
	Query sqlast.QueryExpr
	Mod   sqlast.TemporalModifier
}

// RoutineKind distinguishes functions from procedures.
type RoutineKind uint8

// Routine kinds.
const (
	KindFunction RoutineKind = iota
	KindProcedure
)

// Routine is a stored routine definition kept as AST.
type Routine struct {
	Kind RoutineKind
	Name string
	Fn   *sqlast.CreateFunctionStmt
	Proc *sqlast.CreateProcedureStmt

	// Set when the catalog first registers the routine, never after: a
	// registered routine is read by running statements and shared with
	// every copy of the catalog (Clone).
	sql  string   // the rendered definition, SQL
	keys []string // ParamKeys

	schemas sync.Map // *sqlast.TypeName -> *Schema, filled by CollectionSchema
}

// SQL returns a registered routine's rendered definition.
func (r *Routine) SQL() string { return r.sql }

// Params returns the routine's parameter list.
func (r *Routine) Params() []sqlast.ParamDef {
	if r.Kind == KindFunction {
		return r.Fn.Params
	}
	return r.Proc.Params
}

// ParamKeys returns the parameter names of a registered routine folded
// to lower case, as the engine's variable frames store names: an
// invocation binds its arguments under them without folding per call.
func (r *Routine) ParamKeys() []string { return r.keys }

// CollectionSchema returns the schema of a table-valued variable of the
// ROW(...) ARRAY type ty, a parameter's or DECLARE's type node in r:
// built the first time it is asked for and shared by every later call
// (a schema is never edited). With no routine, a block run at top level,
// it is built afresh.
func (r *Routine) CollectionSchema(ty *sqlast.TypeName) *Schema {
	if r != nil {
		if s, ok := r.schemas.Load(ty); ok {
			return s.(*Schema)
		}
	}
	cols := make([]Column, len(ty.Row))
	for i, f := range ty.Row {
		cols[i] = Column{Name: f.Name, Type: f.Type}
	}
	s := NewSchema(cols)
	if r != nil {
		got, _ := r.schemas.LoadOrStore(ty, s)
		return got.(*Schema)
	}
	return s
}

// Instant returns the ordinal of the parameter core.maxRoutine marked as
// a MAX clone's slicing instant, or -1 for every other routine.
func (r *Routine) Instant() int {
	if p := r.Params(); len(p) > 0 && p[len(p)-1].Instant {
		return len(p) - 1
	}
	return -1
}

// Body returns the routine's body statement.
func (r *Routine) Body() sqlast.Stmt {
	if r.Kind == KindFunction {
		return r.Fn.Body
	}
	return r.Proc.Body
}

// Catalog holds all named schema objects. It is safe for concurrent
// readers; writers (DDL) take the exclusive lock. A table's schema and
// temporal flags, a view and a routine are never written once
// registered — DDL registers a new object in the old one's place — so
// they may be shared between catalogs (Clone).
type Catalog struct {
	mu       sync.RWMutex
	version  atomic.Int64
	persist  atomic.Int64
	tables   map[string]*Table
	views    map[string]*View
	routines map[string]*Routine
}

// Version returns the catalog's schema version: a counter bumped on
// every mutation that actually changes the set of schema objects.
// No-op drops (DROP ... IF EXISTS of a missing object) and routine
// re-registrations with an identical definition do not bump it, so
// caches keyed by this version stay warm across
// repeated executions of generated setup/teardown scripts.
func (c *Catalog) Version() int64 { return c.version.Load() }

// PersistentVersion is Version restricted to the durable schema: DDL
// touching only temporary tables leaves it unchanged. Generated plans
// create and drop statement-scoped scratch tables on every execution;
// caches keyed by the full version would thrash on that churn, so Deps
// and the engine's SELECT plans key on this counter instead and validate
// their temporary-table resolutions individually.
func (c *Catalog) PersistentVersion() int64 { return c.persist.Load() }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:   make(map[string]*Table),
		views:    make(map[string]*View),
		routines: make(map[string]*Routine),
	}
}

// Clone returns a catalog holding c's tables, views and routines: the
// objects are shared, the name maps are the copy's own, so DDL on the
// copy leaves c as it is.
func (c *Catalog) Clone() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &Catalog{tables: maps.Clone(c.tables), views: maps.Clone(c.views), routines: maps.Clone(c.routines)}
}

func key(name string) string { return strings.ToLower(name) }

// lookup returns m[key(name)] under the read lock (the catalog's maps
// are never replaced, only edited). The name is folded into a stack
// buffer and probed as m[string(k)], which allocates nothing: the
// engine resolves every function call of every row through Routine,
// and generated SQL spells builtins in upper case.
func lookup[T any](c *Catalog, m map[string]*T, name string) *T {
	var buf [64]byte
	k := foldKey(buf[:0], name)
	c.mu.RLock()
	defer c.mu.RUnlock()
	return m[string(k)]
}

// foldKey appends key(name) to buf.
func foldKey(buf []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return append(buf[:0], strings.ToLower(name)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

// Table returns the named table or nil.
func (c *Catalog) Table(name string) *Table {
	return lookup(c, c.tables, name)
}

// PutTable registers a table, replacing any previous definition.
func (c *Catalog) PutTable(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.tables[key(t.Name)]
	c.tables[key(t.Name)] = t
	c.version.Add(1)
	// Only purely-temporary churn is invisible to the durable schema:
	// creating a temp table over a persistent one changes what the name
	// means to every cached plan.
	if !t.Temporary || (old != nil && !old.Temporary) {
		c.persist.Add(1)
	}
}

// DropTable removes a table; it reports whether it existed.
func (c *Catalog) DropTable(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.tables[key(name)]
	if !ok {
		return false
	}
	delete(c.tables, key(name))
	c.version.Add(1)
	if !old.Temporary {
		c.persist.Add(1)
	}
	return true
}

// View returns the named view or nil.
func (c *Catalog) View(name string) *View {
	return lookup(c, c.views, name)
}

// PutView registers a view.
func (c *Catalog) PutView(v *View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.views[key(v.Name)] = v
	c.version.Add(1)
	c.persist.Add(1)
}

// DropView removes a view; it reports whether it existed.
func (c *Catalog) DropView(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.views[key(name)]; !ok {
		return false
	}
	delete(c.views, key(name))
	c.version.Add(1)
	c.persist.Add(1)
	return true
}

// Routine returns the named routine or nil.
func (c *Catalog) Routine(name string) *Routine {
	return lookup(c, c.routines, name)
}

// PutRoutine registers a routine, replacing any previous definition,
// and reports whether it did. Re-registering a routine whose rendered
// definition is identical to the stored one keeps the existing entry,
// does not bump the schema version and reports false: the MAX/PERST
// strategies re-emit the same generated clones (max_*, ps_*) on every
// execution, and treating those as DDL would permanently thrash every
// version-keyed cache.
func (c *Catalog) PutRoutine(r *Routine) bool {
	if r.sql == "" { // not registered before (a journal's undo re-registers)
		if r.Kind == KindFunction {
			r.sql = r.Fn.SQL()
		} else {
			r.sql = r.Proc.SQL()
		}
		r.keys = make([]string, len(r.Params()))
		for i, p := range r.Params() {
			r.keys[i] = key(p.Name)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.routines[key(r.Name)]; old != nil && old.Kind == r.Kind && old.sql == r.sql {
		return false
	}
	c.routines[key(r.Name)] = r
	c.version.Add(1)
	c.persist.Add(1)
	return true
}

// DropRoutine removes a routine; it reports whether it existed.
func (c *Catalog) DropRoutine(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.routines[key(name)]; !ok {
		return false
	}
	delete(c.routines, key(name))
	c.version.Add(1)
	c.persist.Add(1)
	return true
}

// TableNames returns the names of all tables (unsorted).
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	return out
}

// ViewNames returns the names of all views (unsorted).
func (c *Catalog) ViewNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v.Name)
	}
	return out
}

// RoutineNames returns the names of all routines (unsorted).
func (c *Catalog) RoutineNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.routines))
	for _, r := range c.routines {
		out = append(out, r.Name)
	}
	return out
}
