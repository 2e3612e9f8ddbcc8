package check

import (
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
	"taupsm/internal/types"
)

// Constant propagation and dead-branch detection over PSM bodies.
//
// foldConst evaluates an expression exactly as the engine would when
// every operand is a literal, using the same types.Arith/CompareOp/
// Tribool machinery, so a folded verdict is never a guess. The checker
// uses the results three ways: TAU050 flags IF/WHILE conditions that
// fold to a constant producing a dead branch, TAU051 marks the first
// statement of each branch that can never run, and TAU052 flags
// sequenced statements whose applicability period is statically empty.
// checkBinary reuses foldConst for TAU053 (constant division by zero).
//
// Always-true loop conditions (WHILE TRUE ... LEAVE) are idiomatic and
// deliberately not flagged; only constants that kill a branch are.

// foldConst evaluates e when it is built entirely from literals,
// mirroring the engine's evaluator. The second result is false when
// the expression is not statically evaluable (including when the
// engine would raise a runtime error — those cases are diagnosed
// separately by checkBinary).
func foldConst(e sqlast.Expr) (types.Value, bool) {
	switch x := e.(type) {
	case *sqlast.Literal:
		return x.Val, true
	case *sqlast.UnaryExpr:
		switch x.Op {
		case "NOT":
			if t, ok := foldTri(x.X); ok {
				return t.Not().Value(), true
			}
		case "-":
			if v, ok := foldConst(x.X); ok {
				if r, err := types.Arith("-", types.NewInt(0), v); err == nil {
					return r, true
				}
			}
		}
	case *sqlast.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			if t, ok := foldTri(x); ok {
				return t.Value(), true
			}
		case "=", "<>", "<", "<=", ">", ">=":
			l, ok := foldConst(x.L)
			if !ok {
				return types.Value{}, false
			}
			r, ok := foldConst(x.R)
			if !ok {
				return types.Value{}, false
			}
			return types.CompareOp(x.Op, l, r).Value(), true
		case "+", "-", "*", "/", "||":
			l, ok := foldConst(x.L)
			if !ok {
				return types.Value{}, false
			}
			r, ok := foldConst(x.R)
			if !ok {
				return types.Value{}, false
			}
			if v, err := types.Arith(x.Op, l, r); err == nil {
				return v, true
			}
		}
	case *sqlast.IsNullExpr:
		if v, ok := foldConst(x.X); ok {
			return types.NewBool(v.IsNull() != x.Not), true
		}
	}
	return types.Value{}, false
}

// foldTri evaluates e as a predicate when statically possible,
// honouring AND/OR short-circuit: FALSE AND <anything> folds even when
// the other operand does not.
func foldTri(e sqlast.Expr) (types.Tribool, bool) {
	if x, ok := e.(*sqlast.BinaryExpr); ok && (x.Op == "AND" || x.Op == "OR") {
		l, lok := foldTri(x.L)
		r, rok := foldTri(x.R)
		if x.Op == "AND" {
			switch {
			case lok && rok:
				return l.And(r), true
			case lok && l == types.False, rok && r == types.False:
				return types.False, true
			}
		} else {
			switch {
			case lok && rok:
				return l.Or(r), true
			case lok && l == types.True, rok && r == types.True:
				return types.True, true
			}
		}
		return types.Unknown, false
	}
	if v, ok := foldConst(e); ok {
		return types.TriboolFromValue(v), true
	}
	return types.Unknown, false
}

// foldIf reports constant IF conditions and the branch they kill. Only
// conditions producing dead code are flagged: an always-true condition
// with no ELSE merely makes the IF redundant, not wrong.
func (c *checker) foldIf(x *sqlast.IfStmt) {
	t, ok := foldTri(x.Cond)
	if !ok {
		return
	}
	pos := findExprPos(x.Cond)
	if pos == (sqlscan.Pos{}) {
		pos = x.Pos
	}
	if t == types.True {
		if len(x.ElseIfs) > 0 || len(x.Else) > 0 {
			c.add(CodeConstCond, Warning, pos,
				"IF condition is always TRUE; the other branches never run")
			c.foldDead(firstStmt(append(elseIfFirst(x.ElseIfs), x.Else...)))
		}
		return
	}
	// FALSE and UNKNOWN both skip the THEN branch.
	c.add(CodeConstCond, Warning, pos,
		"IF condition is always %s; the THEN branch never runs", foldWord(t))
	c.foldDead(firstStmt(x.Then))
}

// foldLoop reports WHILE/REPEAT conditions that statically kill or
// never leave their loop body.
func (c *checker) foldLoop(x sqlast.Stmt) {
	switch s := x.(type) {
	case *sqlast.WhileStmt:
		t, ok := foldTri(s.Cond)
		if !ok || t == types.True {
			return // WHILE TRUE ... LEAVE is idiomatic
		}
		pos := findExprPos(s.Cond)
		if pos == (sqlscan.Pos{}) {
			pos = s.Pos
		}
		c.add(CodeConstCond, Warning, pos,
			"WHILE condition is always %s; the loop body never runs", foldWord(t))
		c.foldDead(firstStmt(s.Body))
	case *sqlast.RepeatStmt:
		// REPEAT runs its body at least once; only an UNTIL that can
		// never become TRUE is suspicious (infinite loop unless LEAVE).
		t, ok := foldTri(s.Until)
		if ok && t == types.True {
			c.add(CodeConstCond, Warning, s.Pos,
				"REPEAT ... UNTIL condition is always TRUE; the loop runs exactly once")
		}
	}
}

func foldWord(t types.Tribool) string {
	if t == types.False {
		return "FALSE"
	}
	return "UNKNOWN"
}

func elseIfFirst(eis []sqlast.ElseIf) []sqlast.Stmt {
	var out []sqlast.Stmt
	for _, ei := range eis {
		out = append(out, ei.Then...)
	}
	return out
}

func firstStmt(list []sqlast.Stmt) sqlast.Stmt {
	if len(list) == 0 {
		return nil
	}
	return list[0]
}

// foldDead marks the first statement of a branch that constant folding
// proved unreachable.
func (c *checker) foldDead(s sqlast.Stmt) {
	if s == nil {
		return
	}
	if pos := sqlast.PosOf(s); pos != (sqlscan.Pos{}) {
		c.add(CodeFoldedDead, Warning, pos,
			"statement is unreachable: the guarding condition is constant")
	}
}

// foldPeriod flags a sequenced statement whose explicit applicability
// period is statically empty (begin >= end): the engine executes it
// but it can never select or modify anything.
func (c *checker) foldPeriod(x *sqlast.TemporalStmt) {
	if x.Period == nil || x.Period.Begin == nil || x.Period.End == nil {
		return
	}
	b, ok := foldConst(x.Period.Begin)
	if !ok {
		return
	}
	e, ok := foldConst(x.Period.End)
	if !ok {
		return
	}
	b, errB := types.Convert(b, types.KindDate)
	e, errE := types.Convert(e, types.KindDate)
	if errB != nil || errE != nil {
		return
	}
	if cmp, ok := types.Compare(b, e); ok && cmp >= 0 {
		c.add(CodeEmptyPeriod, Warning, x.Pos,
			"applicability period [%s, %s) is empty; the statement has no effect", b.Text(), e.Text())
	}
}
