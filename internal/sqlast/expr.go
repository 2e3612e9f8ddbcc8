package sqlast

import (
	"math"
	"strings"

	"taupsm/internal/sqlscan"
	"taupsm/internal/types"
)

// Literal is a constant value.
type Literal struct {
	Val types.Value
}

func (*Literal) exprNode() {}

// ColumnRef names a column, a routine variable, or a routine parameter;
// the engine resolves columns first (SQL scoping), then variables.
type ColumnRef struct {
	Table  string // optional qualifier
	Column string
	Pos    sqlscan.Pos
}

func (*ColumnRef) exprNode() {}

// BinaryExpr applies a binary operator: arithmetic (+ - * / ||),
// comparison (= <> < <= > >=), or logical (AND OR).
type BinaryExpr struct {
	Op string
	L  Expr
	R  Expr
}

func (*BinaryExpr) exprNode() {}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (*UnaryExpr) exprNode() {}

// IsNullExpr is X IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) exprNode() {}

// BetweenExpr is X [NOT] BETWEEN Lo AND Hi.
type BetweenExpr struct {
	X   Expr
	Lo  Expr
	Hi  Expr
	Not bool
}

func (*BetweenExpr) exprNode() {}

// InExpr is X [NOT] IN (list) or X [NOT] IN (subquery).
type InExpr struct {
	X    Expr
	List []Expr
	Sub  QueryExpr
	Not  bool
}

func (*InExpr) exprNode() {}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Sub QueryExpr
	Not bool
}

func (*ExistsExpr) exprNode() {}

// LikeExpr is X [NOT] LIKE pattern.
type LikeExpr struct {
	X       Expr
	Pattern Expr
	Not     bool
}

func (*LikeExpr) exprNode() {}

// WhenClause is one WHEN ... THEN ... arm of a CASE expression.
type WhenClause struct {
	When Expr
	Then Expr
}

// CaseExpr is a simple (Operand != nil) or searched CASE expression.
type CaseExpr struct {
	Operand Expr
	Whens   []WhenClause
	Else    Expr
}

func (*CaseExpr) exprNode() {}

// CastExpr is CAST(X AS type).
type CastExpr struct {
	X    Expr
	Type TypeName
}

func (*CastExpr) exprNode() {}

// FuncCall invokes a builtin or stored function. Star marks COUNT(*).
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
	Pos      sqlscan.Pos
}

func (*FuncCall) exprNode() {}

// IsAggregate reports whether name is one of the aggregate functions.
// The engine asks on every function invocation, so the names are folded
// in place, without building the upper-cased one.
func IsAggregate(name string) bool {
	for _, a := range [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		if strings.EqualFold(name, a) {
			return true
		}
	}
	return false
}

// BuiltinArity maps the upper-cased name of each library function to
// the least and the most arguments the engine accepts for it. It is the
// one list of the names that are functions without being stored: the
// engine binds its implementations by it, the analyzer checks calls
// against it.
var BuiltinArity = map[string][2]int{
	"CURRENT_DATE": {0, math.MaxInt}, "CURRENT_TIME": {0, math.MaxInt}, "CURRENT_TIMESTAMP": {0, math.MaxInt},
	"FIRST_INSTANCE": {2, 2}, "LAST_INSTANCE": {2, 2},
	"UPPER": {1, 1}, "UCASE": {1, 1}, "LOWER": {1, 1}, "LCASE": {1, 1},
	"LENGTH": {1, 1}, "CHAR_LENGTH": {1, 1}, "CHARACTER_LENGTH": {1, 1},
	"TRIM": {1, 1}, "SUBSTR": {2, 3}, "SUBSTRING": {2, 3},
	"ABS": {1, 1}, "MOD": {2, 2}, "COALESCE": {0, math.MaxInt}, "NULLIF": {2, 2},
	"YEAR": {1, 1}, "MONTH": {1, 1}, "DAY": {1, 1}, "DATE": {1, 1},
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct {
	Query QueryExpr
}

func (*SubqueryExpr) exprNode() {}
