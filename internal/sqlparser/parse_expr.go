package sqlparser

import (
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
	"taupsm/internal/types"
)

// Expression grammar (descending precedence):
//
//	expr     := or
//	or       := and { OR and }
//	and      := not { AND not }
//	not      := NOT not | predicate
//	pred     := additive [ compareOp additive
//	                     | IS [NOT] NULL
//	                     | [NOT] BETWEEN additive AND additive
//	                     | [NOT] IN ( list | query )
//	                     | [NOT] LIKE additive ]
//	additive := multip { (+|-|'||') multip }
//	multip   := unary { (*|/) unary }
//	unary    := - unary | primary

func (p *parser) parseExpr() (sqlast.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (sqlast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &sqlast.BinaryExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (sqlast.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &sqlast.BinaryExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (sqlast.Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &sqlast.UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (sqlast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// comparison
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.isOp(op) {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &sqlast.BinaryExpr{Op: op, L: left, R: right}, nil
		}
	}
	if p.acceptKw("IS") {
		not := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &sqlast.IsNullExpr{X: left, Not: not}, nil
	}
	not := false
	if p.isKw("NOT") && (isWordTok(p.peek(1), "BETWEEN") || isWordTok(p.peek(1), "IN") || isWordTok(p.peek(1), "LIKE")) {
		p.next()
		not = true
	}
	switch {
	case p.acceptKw("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &sqlast.BetweenExpr{X: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKw("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &sqlast.InExpr{X: left, Not: not}
		if p.isKw("SELECT") || p.isKw("VALUES") || p.isOp("(") {
			q, err := p.parseQueryExpr()
			if err != nil {
				return nil, err
			}
			in.Sub = q
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.acceptOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.acceptKw("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &sqlast.LikeExpr{X: left, Pattern: pat, Not: not}, nil
	}
	return left, nil
}

func (p *parser) parseAdditive() (sqlast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.isOp("+"):
			op = "+"
		case p.isOp("-"):
			op = "-"
		case p.isOp("||"):
			op = "||"
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &sqlast.BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (sqlast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isOp("*") || p.isOp("/") {
		op := p.next().Text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &sqlast.BinaryExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (sqlast.Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*sqlast.Literal); ok {
			switch lit.Val.Kind {
			case types.KindInt:
				return &sqlast.Literal{Val: types.NewInt(-lit.Val.I)}, nil
			case types.KindFloat:
				return &sqlast.Literal{Val: types.NewFloat(-lit.Val.F)}, nil
			}
		}
		return &sqlast.UnaryExpr{Op: "-", X: x}, nil
	}
	p.acceptOp("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (sqlast.Expr, error) {
	t := p.tok()
	switch {
	case t.Kind == sqlscan.Number:
		p.next()
		return &sqlast.Literal{Val: makeNumber(t.Text)}, nil
	case t.Kind == sqlscan.String:
		p.next()
		return &sqlast.Literal{Val: types.NewString(t.Text)}, nil
	case p.isKw("NULL"):
		p.next()
		return &sqlast.Literal{Val: types.Null}, nil
	case p.isKw("TRUE"):
		p.next()
		return &sqlast.Literal{Val: types.NewBool(true)}, nil
	case p.isKw("FALSE"):
		p.next()
		return &sqlast.Literal{Val: types.NewBool(false)}, nil
	case p.isKw("CASE"):
		return p.parseCaseExpr()
	case p.isKw("CAST"):
		p.next()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.CastExpr{X: x, Type: ty}, nil
	case p.isKw("EXISTS"):
		p.next()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.ExistsExpr{Sub: q}, nil
	case p.isOp("("):
		p.next()
		if p.isKw("SELECT") || p.isKw("VALUES") {
			q, err := p.parseQueryExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &sqlast.SubqueryExpr{Query: q}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == sqlscan.Ident:
		// DATE 'yyyy-mm-dd' literal
		if strings.EqualFold(t.Text, "DATE") && p.peek(1).Kind == sqlscan.String {
			p.next()
			lit := p.next()
			d, err := types.ParseDate(lit.Text)
			if err != nil {
				return nil, &Error{Pos: lit.Pos, Msg: err.Error()}
			}
			return &sqlast.Literal{Val: types.NewDate(d)}, nil
		}
		name, _ := p.ident()
		upper := strings.ToUpper(name)
		if bi := types.Builtins[upper]; bi != nil && bi.Clock { // CURRENT_DATE: a call without parentheses
			return &sqlast.FuncCall{Name: upper, Pos: t.Pos}, nil
		}
		// function call
		if p.isOp("(") {
			return p.parseFuncCall(name, t.Pos)
		}
		// qualified column t.c
		if p.isOp(".") {
			p.next()
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &sqlast.ColumnRef{Table: name, Column: col, Pos: t.Pos}, nil
		}
		return &sqlast.ColumnRef{Column: name, Pos: t.Pos}, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.Text)
}

func (p *parser) parseFuncCall(name string, pos sqlscan.Pos) (sqlast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	f := &sqlast.FuncCall{Name: name, Pos: pos}
	if p.isOp("*") {
		p.next()
		f.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptOp(")") {
		return f, nil
	}
	if p.acceptKw("DISTINCT") {
		f.Distinct = true
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, a)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseCaseExpr() (sqlast.Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	c := &sqlast.CaseExpr{}
	if !p.isKw("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, sqlast.WhenClause{When: w, Then: th})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN clause")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseType parses a SQL type name, including ROW(...) ARRAY
// collection types.
func (p *parser) parseType() (sqlast.TypeName, error) {
	t := p.tok()
	if t.Kind != sqlscan.Ident {
		return sqlast.TypeName{}, p.errf("expected type name, found %q", t.Text)
	}
	name := strings.ToUpper(t.Text)
	p.next()
	switch name {
	case "ROW":
		ty := sqlast.TypeName{Base: "ROW"}
		if err := p.expectOp("("); err != nil {
			return ty, err
		}
		for {
			fn, err := p.ident()
			if err != nil {
				return ty, err
			}
			ft, err := p.parseType()
			if err != nil {
				return ty, err
			}
			ty.Row = append(ty.Row, sqlast.ColumnDef{Name: fn, Type: ft})
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return ty, err
		}
		if p.acceptWord("ARRAY") {
			ty.Array = true
		}
		return ty, nil
	case "INTEGER", "INT", "SMALLINT", "BIGINT", "DATE", "BOOLEAN", "FLOAT", "DOUBLE", "REAL":
		if name == "DOUBLE" {
			p.acceptWord("PRECISION")
		}
		return sqlast.TypeName{Base: name}, nil
	case "CHAR", "CHARACTER", "VARCHAR", "DECIMAL", "NUMERIC":
		ty := sqlast.TypeName{Base: name}
		if name == "CHARACTER" && p.isWord("VARYING") {
			p.next()
			ty.Base = "VARCHAR"
		}
		if p.acceptOp("(") {
			n, err := p.number()
			if err != nil {
				return ty, err
			}
			ty.Length = n
			if p.acceptOp(",") {
				s, err := p.number()
				if err != nil {
					return ty, err
				}
				ty.Scale = s
			}
			if err := p.expectOp(")"); err != nil {
				return ty, err
			}
		}
		return ty, nil
	}
	return sqlast.TypeName{}, p.errf("unknown type name %q", t.Text)
}
