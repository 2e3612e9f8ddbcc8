package storage

import (
	"errors"
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// The catalog is also the schema the translator (core.SchemaInfo) and
// the analyzer (check.Catalog) read: the methods below answer from the
// objects the engine executes on, with the engine's rules, so neither
// reader keeps a copy of one.

// Binding is one correlation name a FROM element binds: its alias and
// its column names, in order.
type Binding struct {
	Alias string
	Cols  []string
}

// ItemName names the output column of a SELECT's i-th item (0-based)
// that is not a star: its alias, else the name of the column it reads,
// else col<i+1>. It is the one place an unnamed column is named.
func ItemName(it sqlast.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
		return cr.Column
	}
	return fmt.Sprintf("col%d", i+1)
}

// Relations is what names the relations a FROM element reads: the
// columns a relation name reaches, or why it reaches none, and the
// stored function a table function calls. The catalog is one; the
// engine's scope and the analyzer's, which see a routine's local tables
// first, are others.
type Relations interface {
	RelationColumns(name string) ([]string, error)
	Function(name string) *sqlast.CreateFunctionStmt
}

// QueryColumns names q's output columns without evaluating it: each
// item by ItemName, * and t.* by the columns of what rels says its FROM
// elements bind, a set operation by its left operand and VALUES by
// position. It is nil when an error stops it.
func QueryColumns(rels Relations, q sqlast.QueryExpr) ([]string, error) {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		var bs []Binding
		for _, fr := range x.From {
			b, err := Bindings(rels, fr)
			if err != nil {
				return nil, err
			}
			bs = append(bs, b...)
		}
		var out []string
		for i, it := range x.Items {
			switch {
			case it.Star:
				for _, b := range bs {
					out = append(out, b.Cols...)
				}
			case it.TableStar != "":
				found := false
				for _, b := range bs {
					if strings.EqualFold(b.Alias, it.TableStar) {
						out = append(out, b.Cols...)
						found = true
					}
				}
				if !found {
					return nil, fmt.Errorf("unknown correlation name %s.*", it.TableStar)
				}
			default:
				out = append(out, ItemName(it, i))
			}
		}
		return out, nil
	case *sqlast.SetOpExpr:
		return QueryColumns(rels, x.L)
	case *sqlast.ValuesExpr:
		if len(x.Rows) == 0 {
			return nil, nil
		}
		out := make([]string, len(x.Rows[0]))
		for i := range out {
			out[i] = ItemName(sqlast.SelectItem{}, i)
		}
		return out, nil
	}
	return nil, fmt.Errorf("unsupported query %T", q)
}

// Bindings returns what a FROM element binds, its relations named by
// rels.
func Bindings(rels Relations, ref sqlast.TableRef) ([]Binding, error) {
	var cols []string
	var err error
	alias := ""
	switch r := ref.(type) {
	case *sqlast.BaseTable:
		alias = r.Alias
		if alias == "" {
			alias = r.Name
		}
		cols, err = rels.RelationColumns(r.Name)
	case *sqlast.DerivedTable:
		alias, cols = r.Alias, r.Cols
		if len(cols) == 0 {
			cols, err = QueryColumns(rels, r.Query)
		}
	case *sqlast.TableFunc:
		alias, cols = r.Alias, r.Cols
		if len(cols) == 0 {
			fn := rels.Function(r.Call.Name)
			switch {
			case fn == nil:
				return nil, fmt.Errorf("table function %s does not exist", r.Call.Name)
			case !fn.Returns.IsCollection():
				return nil, fmt.Errorf("function %s does not return a collection type", r.Call.Name)
			}
			for _, f := range fn.Returns.Row {
				cols = append(cols, f.Name)
			}
		}
	case *sqlast.JoinExpr:
		l, err := Bindings(rels, r.L)
		if err != nil {
			return nil, err
		}
		rb, err := Bindings(rels, r.R)
		if err != nil {
			return nil, err
		}
		return append(l, rb...), nil
	default:
		return nil, fmt.Errorf("unsupported table reference %T", ref)
	}
	if err != nil {
		return nil, err
	}
	return []Binding{{Alias: alias, Cols: cols}}, nil
}

// ErrUnnamed stops naming a query's columns at a relation whose columns
// are not known without running it.
var ErrUnnamed = errors.New("relation not named statically")

// atDepth is the catalog read as Relations at a depth of views: a chain
// of views named from their queries is cut at 64, which only a cycle
// reaches.
type atDepth struct {
	c     *Catalog
	depth int
}

func (a atDepth) RelationColumns(name string) ([]string, error) {
	var cols []string
	if t := a.c.Table(name); t != nil {
		cols = t.Schema.Names()
	} else if v := a.c.View(name); v != nil {
		if cols = v.Cols; len(cols) == 0 && a.depth < 64 {
			cols, _ = QueryColumns(atDepth{a.c, a.depth + 1}, v.Query)
		}
	} else if s := SystemSchema(name); s != nil {
		cols = s.Names()
	}
	if cols == nil {
		return nil, ErrUnnamed
	}
	return cols, nil
}

func (a atDepth) Function(name string) *sqlast.CreateFunctionStmt { return a.c.Function(name) }

// TableColumns returns the column names of a table, a view or a system
// table: for a view, the names its query's columns get when the engine
// runs it. It is nil when name is none of them, or names a view that
// reads a relation outside the catalog.
func (c *Catalog) TableColumns(name string) []string {
	cols, _ := atDepth{c, 0}.RelationColumns(name)
	return cols
}

// TableColumnKinds returns the value kinds of a table's or a system
// table's columns, parallel to TableColumns, or nil for any other name.
func (c *Catalog) TableColumnKinds(name string) []types.Kind {
	if t := c.Table(name); t != nil {
		return t.Schema.Kinds()
	}
	if s := SystemSchema(name); s != nil && c.View(name) == nil {
		return s.Kinds()
	}
	return nil
}

// IsTable reports whether name is a stored base table.
func (c *Catalog) IsTable(name string) bool { return c.Table(name) != nil }

// IsTemporalTable reports whether name is a table with valid or
// transaction time, IsTransactionTable with transaction time,
// IsBitemporalTable with both.
func (c *Catalog) IsTemporalTable(name string) bool {
	t := c.Table(name)
	return t != nil && (t.ValidTime || t.TransactionTime)
}

func (c *Catalog) IsTransactionTable(name string) bool {
	t := c.Table(name)
	return t != nil && t.TransactionTime
}

func (c *Catalog) IsBitemporalTable(name string) bool {
	t := c.Table(name)
	return t != nil && t.Bitemporal()
}

// ViewQuery returns the defining query of a view, Function and
// Procedure the definition of a stored routine of that kind; each nil
// when name is none.
func (c *Catalog) ViewQuery(name string) sqlast.QueryExpr {
	if v := c.View(name); v != nil {
		return v.Query
	}
	return nil
}

func (c *Catalog) Function(name string) *sqlast.CreateFunctionStmt {
	if r := c.Routine(name); r != nil && r.Kind == KindFunction {
		return r.Fn
	}
	return nil
}

func (c *Catalog) Procedure(name string) *sqlast.CreateProcedureStmt {
	if r := c.Routine(name); r != nil && r.Kind == KindProcedure {
		return r.Proc
	}
	return nil
}

// The system tables' schemas. The engine materializes their rows from
// its statistics and process registries (internal/engine/system_tables.go)
// when a name reaches one after a table and a view of the name missed;
// the catalog answers their columns the same way.
var systemSchemas = map[string]*Schema{
	"tau_stat_tables": systemSchema("table_name VARCHAR, temporal BOOLEAN, row_count INTEGER, " +
		"inserts INTEGER, updates INTEGER, deletes INTEGER, distinct_points INTEGER, " +
		"constant_periods INTEGER, period_density FLOAT, avg_interval_days FLOAT, " +
		"analyzed BOOLEAN, analyzed_rows INTEGER, max_overlap INTEGER"),
	"tau_stat_routines": systemSchema("routine_name VARCHAR, calls INTEGER, traced_calls INTEGER, " +
		"traced_ns INTEGER, traced_mean_ns INTEGER"),
	"tau_stat_statements": systemSchema("digest VARCHAR, kind VARCHAR, calls INTEGER, errors INTEGER, " +
		"total_ns INTEGER, mean_ns INTEGER, max_ns INTEGER, reused_calls INTEGER, last_strategy VARCHAR, statement VARCHAR"),
	"tau_stat_activity": systemSchema("pid INTEGER, session VARCHAR, kind VARCHAR, strategy VARCHAR, " +
		"stage VARCHAR, elapsed_ms FLOAT, cp_done INTEGER, cp_total INTEGER, " +
		"fragments_done INTEGER, fragments_total INTEGER, rows INTEGER, rows_scanned INTEGER, " +
		"routine_calls INTEGER, wal_pending INTEGER, killed BOOLEAN, " +
		"trace_id VARCHAR, digest VARCHAR, statement VARCHAR"),
}

// systemSchema builds a schema from "name TYPE, …".
func systemSchema(def string) *Schema {
	var cols []Column
	for _, c := range strings.Split(def, ", ") {
		name, base, _ := strings.Cut(c, " ")
		cols = append(cols, Column{Name: name, Type: sqlast.TypeName{Base: base}})
	}
	return NewSchema(cols)
}

// SystemSchema returns the schema of the named system table, or nil.
func SystemSchema(name string) *Schema { return systemSchemas[strings.ToLower(name)] }
