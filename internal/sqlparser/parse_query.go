package sqlparser

import (
	"fmt"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
)

// parseQueryExpr parses a query body: SELECT blocks combined with
// UNION/EXCEPT/INTERSECT (left-associative, UNION/EXCEPT lower
// precedence than INTERSECT), a parenthesized query, or VALUES.
func (p *parser) parseQueryExpr() (sqlast.QueryExpr, error) {
	left, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for p.isKw("UNION") || p.isKw("EXCEPT") {
		op := p.next().Text
		all := p.acceptKw("ALL")
		right, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		left = &sqlast.SetOpExpr{Op: op, All: all, L: left, R: right}
	}
	if so, ok := left.(*sqlast.SetOpExpr); ok && p.isKw("ORDER") {
		ob, err := p.parseOrderBy()
		if err != nil {
			return nil, err
		}
		so.OrderBy = ob
	}
	return left, nil
}

func (p *parser) parseQueryTerm() (sqlast.QueryExpr, error) {
	left, err := p.parseQueryPrimary()
	if err != nil {
		return nil, err
	}
	for p.isKw("INTERSECT") {
		p.next()
		all := p.acceptKw("ALL")
		right, err := p.parseQueryPrimary()
		if err != nil {
			return nil, err
		}
		left = &sqlast.SetOpExpr{Op: "INTERSECT", All: all, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseQueryPrimary() (sqlast.QueryExpr, error) {
	switch {
	case p.isOp("("):
		p.next()
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return q, nil
	case p.isKw("SELECT"):
		return p.parseSelect()
	case p.isKw("VALUES"):
		return p.parseValues()
	}
	return nil, p.errf("expected SELECT, VALUES or '(', found %q", p.tok().Text)
}

func (p *parser) parseValues() (sqlast.QueryExpr, error) {
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	v := &sqlast.ValuesExpr{}
	for {
		open := p.tok()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []sqlast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if len(v.Rows) > 0 && len(row) != len(v.Rows[0]) {
			return nil, &Error{Pos: open.Pos, Msg: fmt.Sprintf("VALUES row %d has %d values, row 1 has %d",
				len(v.Rows)+1, len(row), len(v.Rows[0]))}
		}
		v.Rows = append(v.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return v, nil
}

func (p *parser) parseSelect() (*sqlast.SelectStmt, error) {
	pos := p.tok().Pos
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &sqlast.SelectStmt{Pos: pos}
	if p.acceptKw("DISTINCT") {
		s.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	// select list
	for {
		it, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, it)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		for {
			r, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, r)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	var err error
	if p.acceptKw("WHERE") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, g)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		if s.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.isKw("ORDER") {
		if s.OrderBy, err = p.parseOrderBy(); err != nil {
			return nil, err
		}
	}
	// FETCH FIRST n ROWS ONLY | LIMIT n
	if p.isKw("FETCH") && isWordTok(p.peek(1), "FIRST") {
		p.next() // FETCH
		p.next() // FIRST
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		s.Limit = &sqlast.Literal{Val: makeNumber(intText(n))}
		p.acceptWord("ROW")
		p.acceptWord("ROWS")
		if err := p.expectWord("ONLY"); err != nil {
			return nil, err
		}
	} else if p.acceptWord("LIMIT") {
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		s.Limit = &sqlast.Literal{Val: makeNumber(intText(n))}
	}
	return s, nil
}

func intText(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func isWordTok(t sqlscan.Token, w string) bool {
	return (t.Kind == sqlscan.Keyword || t.Kind == sqlscan.Ident) && equalFold(t.Text, w)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'a' <= ca && ca <= 'z' {
			ca -= 'a' - 'A'
		}
		if 'a' <= cb && cb <= 'z' {
			cb -= 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func (p *parser) parseOrderBy() ([]sqlast.OrderItem, error) {
	if err := p.expectKw("ORDER"); err != nil {
		return nil, err
	}
	if err := p.expectKw("BY"); err != nil {
		return nil, err
	}
	var out []sqlast.OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		it := sqlast.OrderItem{Expr: e}
		if p.acceptWord("DESC") {
			it.Desc = true
		} else {
			p.acceptWord("ASC")
		}
		out = append(out, it)
		if !p.acceptOp(",") {
			break
		}
	}
	return out, nil
}

func (p *parser) parseSelectItem() (sqlast.SelectItem, error) {
	if p.isOp("*") {
		p.next()
		return sqlast.SelectItem{Star: true}, nil
	}
	// t.* form
	if p.tok().Kind == sqlscan.Ident && p.peek(1).Kind == sqlscan.Op && p.peek(1).Text == "." &&
		p.peek(2).Kind == sqlscan.Op && p.peek(2).Text == "*" {
		name, _ := p.ident()
		p.next() // .
		p.next() // *
		return sqlast.SelectItem{TableStar: name}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	it := sqlast.SelectItem{Expr: e}
	if p.acceptKw("AS") {
		if it.Alias, err = p.ident(); err != nil {
			return it, err
		}
	} else if p.tok().Kind == sqlscan.Ident {
		it.Alias, _ = p.ident()
	}
	return it, nil
}

// parseTableRef parses one FROM element, including chained JOINs.
func (p *parser) parseTableRef() (sqlast.TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt string
		switch {
		case p.isKw("JOIN"):
			p.next()
			jt = "INNER"
		case p.isKw("INNER") && isWordTok(p.peek(1), "JOIN"):
			p.next()
			p.next()
			jt = "INNER"
		case p.isKw("LEFT"):
			p.next()
			p.acceptWord("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = "LEFT"
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &sqlast.JoinExpr{L: left, R: right, Type: jt, On: on}
	}
}

func (p *parser) parseTablePrimary() (sqlast.TableRef, error) {
	switch {
	case p.isOp("("):
		p.next()
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		d := &sqlast.DerivedTable{Query: q}
		if err := p.parseCorrelation(&d.Alias, &d.Cols, true); err != nil {
			return nil, err
		}
		return d, nil
	case p.isKw("TABLE"):
		p.next()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call, ok := e.(*sqlast.FuncCall)
		if !ok {
			return nil, p.errf("TABLE(...) requires a function invocation")
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		t := &sqlast.TableFunc{Call: call}
		if err := p.parseCorrelation(&t.Alias, &t.Cols, true); err != nil {
			return nil, err
		}
		return t, nil
	default:
		npos := p.tok().Pos
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		// fn(args) AS t — a table function without the TABLE keyword
		if p.isOp("(") {
			p.i-- // rewind the identifier
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call, ok := e.(*sqlast.FuncCall)
			if !ok {
				return nil, p.errf("expected table function in FROM clause")
			}
			t := &sqlast.TableFunc{Call: call}
			if err := p.parseCorrelation(&t.Alias, &t.Cols, true); err != nil {
				return nil, err
			}
			return t, nil
		}
		b := &sqlast.BaseTable{Name: name, Pos: npos}
		var cols []string
		if err := p.parseCorrelation(&b.Alias, &cols, false); err != nil {
			return nil, err
		}
		return b, nil
	}
}

// parseCorrelation parses [AS] alias [(col, ...)].
func (p *parser) parseCorrelation(alias *string, cols *[]string, required bool) error {
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return err
		}
		*alias = a
	} else if p.tok().Kind == sqlscan.Ident {
		a, _ := p.ident()
		*alias = a
	} else if required {
		return p.errf("expected correlation name, found %q", p.tok().Text)
	}
	if cols != nil && p.isOp("(") && p.peek(1).Kind == sqlscan.Ident &&
		(p.peek(2).Kind == sqlscan.Op && (p.peek(2).Text == "," || p.peek(2).Text == ")")) {
		p.next()
		for {
			c, err := p.ident()
			if err != nil {
				return err
			}
			*cols = append(*cols, c)
			if !p.acceptOp(",") {
				break
			}
		}
		return p.expectOp(")")
	}
	return nil
}
