// Package sqlast defines the abstract syntax tree for the SQL + PSM
// dialect taupsm speaks: queries, DML, DDL, stored routines (SQL/PSM
// control statements), and the SQL/Temporal statement modifiers
// VALIDTIME and NONSEQUENCED VALIDTIME. It also provides a printer
// (AST back to SQL text, the output side of the source-to-source
// stratum), a deep cloner, and a generic rewriter.
package sqlast

import (
	"taupsm/internal/sqlscan"
	"taupsm/internal/types"
)

// Node is implemented by every AST node.
type Node interface {
	// SQL renders the node as SQL/PSM source text.
	SQL() string
}

// Stmt is any executable statement (query, DML, DDL, or PSM statement).
type Stmt interface {
	Node
	stmtNode()
}

// Expr is any scalar expression.
type Expr interface {
	Node
	exprNode()
}

// QueryExpr is a query body: a SELECT, a set operation over queries, or
// a VALUES constructor.
type QueryExpr interface {
	Node
	queryNode()
}

// TableRef is an element of a FROM clause.
type TableRef interface {
	Node
	tableRefNode()
}

// TemporalModifier is the statement modifier class of a query
// (paper §III): current (none), sequenced (VALIDTIME), or
// nonsequenced (NONSEQUENCED VALIDTIME).
type TemporalModifier uint8

// The three temporal statement modifiers.
const (
	ModCurrent TemporalModifier = iota
	ModSequenced
	ModNonsequenced
)

// String names the modifier as it is spelled in Temporal SQL/PSM.
func (m TemporalModifier) String() string {
	switch m {
	case ModSequenced:
		return "VALIDTIME"
	case ModNonsequenced:
		return "NONSEQUENCED VALIDTIME"
	}
	return ""
}

// TemporalDimension selects which time dimension a statement modifier
// or table definition refers to: valid time (what is true in the
// modeled reality) or transaction time (what the database recorded,
// maintained automatically and append-only). The paper focuses on
// valid time and notes everything also applies to transaction time
// (§III); bitemporal tables remain future work there and here.
type TemporalDimension uint8

// The two time dimensions.
const (
	DimValid TemporalDimension = iota
	DimTransaction
)

// Keyword returns the dimension's statement-modifier keyword.
func (d TemporalDimension) Keyword() string {
	if d == DimTransaction {
		return "TRANSACTIONTIME"
	}
	return "VALIDTIME"
}

// Other returns the orthogonal dimension.
func (d TemporalDimension) Other() TemporalDimension {
	if d == DimTransaction {
		return DimValid
	}
	return DimTransaction
}

// TypeName is a SQL data type, possibly a collection type
// ROW(fields...) ARRAY as used by per-statement slicing return values.
type TypeName struct {
	Base   string // INTEGER, CHAR, VARCHAR, DECIMAL, FLOAT, DATE, BOOLEAN, ROW
	Length int    // CHAR(n)/VARCHAR(n), DECIMAL(p,…)
	Scale  int    // DECIMAL(p,s)
	Row    []ColumnDef
	Array  bool // ROW(...) ARRAY collection type
}

// IsCollection reports whether the type is a ROW(...) ARRAY collection.
func (t TypeName) IsCollection() bool { return t.Base == "ROW" && t.Array }

// Kind maps the declared type to its runtime value kind.
func (t TypeName) Kind() types.Kind {
	switch t.Base {
	case "INTEGER", "INT", "SMALLINT", "BIGINT":
		return types.KindInt
	case "DECIMAL", "NUMERIC", "FLOAT", "DOUBLE", "REAL":
		return types.KindFloat
	case "CHAR", "VARCHAR", "CHARACTER":
		return types.KindString
	case "DATE":
		return types.KindDate
	case "BOOLEAN":
		return types.KindBool
	case "ROW":
		return types.KindTable
	}
	return types.KindNull
}

// ColumnDef is a column in a CREATE TABLE or a field of a ROW type.
type ColumnDef struct {
	Name string
	Type TypeName
	Pos  sqlscan.Pos
}

// ParamMode is the parameter mode of a procedure parameter.
type ParamMode uint8

// Procedure parameter modes.
const (
	ModeIn ParamMode = iota
	ModeOut
	ModeInOut
)

// String names the mode keyword.
func (m ParamMode) String() string {
	switch m {
	case ModeOut:
		return "OUT"
	case ModeInOut:
		return "INOUT"
	}
	return "IN"
}

// ParamDef is a routine parameter.
type ParamDef struct {
	Mode ParamMode
	Name string
	Type TypeName
	Pos  sqlscan.Pos
	// Instant marks the slicing instant core.maxRoutine appends to a MAX
	// clone. Never printed: a re-parsed clone is an ordinary routine.
	Instant bool
}
