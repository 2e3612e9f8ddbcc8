package sqlast

import (
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

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct {
	Query QueryExpr
}

func (*SubqueryExpr) exprNode() {}
