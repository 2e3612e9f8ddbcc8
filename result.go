package taupsm

import (
	"strings"
	"unsafe"

	"taupsm/internal/engine"
	"taupsm/internal/types"
)

// Value is one SQL value of a query result.
type Value struct {
	inner types.Value
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.inner.IsNull() }

// Int returns the value as an int64 (0 for NULL).
func (v Value) Int() int64 { return v.inner.Int() }

// Float returns the value as a float64 (0 for NULL).
func (v Value) Float() float64 { return v.inner.Float() }

// Bool returns the value as a bool.
func (v Value) Bool() bool { return v.inner.Bool() }

// String renders the value the way a result row prints it; dates
// render as YYYY-MM-DD and NULL as "NULL".
func (v Value) String() string { return v.inner.Text() }

// Result is the outcome of executing a statement.
type Result struct {
	// Columns are the output column names (empty for non-queries).
	Columns []string
	// Rows are the result rows.
	Rows [][]Value
	// Affected is the number of rows a modification touched.
	Affected int
	// Warnings are warning-severity diagnostics the static analyzer
	// attached (routine definitions only; errors reject the statement
	// instead).
	Warnings []Diagnostic
}

// A Value is a types.Value and nothing else: wrapResult relies on it, and
// this does not compile when the sizes differ.
var _ [unsafe.Sizeof(types.Value{}) - unsafe.Sizeof(Value{})]struct{}
var _ [unsafe.Sizeof(Value{}) - unsafe.Sizeof(types.Value{})]struct{}

// wrapResult adopts the engine's result: the rows are reinterpreted, not
// copied. That is safe because a Value wraps exactly one types.Value
// (above) and because the row slices of an engine.Result are owned by
// whoever receives it — the engine writes every result row afresh, so
// none aliases a table, a source's memo or a plan (DESIGN §15;
// TestResultRowsAreOwned), and what the caller does to its rows stays
// with the caller.
func wrapResult(r *engine.Result) *Result {
	if r == nil {
		return &Result{}
	}
	return &Result{Columns: r.Cols, Affected: r.Affected, Rows: *(*[][]Value)(unsafe.Pointer(&r.Rows))}
}

// String renders the result as a simple aligned text table.
func (r *Result) String() string {
	if len(r.Columns) == 0 {
		return "(no result set)"
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, s := range vals {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(s)
			for p := len(s); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	var seps []string
	for _, w := range widths {
		seps = append(seps, strings.Repeat("-", w))
	}
	writeRow(seps)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
