package check

import (
	"fmt"
	"strings"

	"taupsm/internal/engine"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
	"taupsm/internal/types"
)

// Typed IR: static expression typing for Temporal SQL/PSM.
//
// The checker infers a runtime value kind for every expression it can
// and compares the inference against the engine's actual runtime
// behaviour — types.Arith/Compare/TriboolFromValue for evaluation and
// the engine's assignment coercions for SET/INSERT/RETURN/arguments.
// The inference is deliberately conservative: types.KindNull stands
// for "statically unknown" and unknown kinds never produce a
// diagnostic, so opaque schemas, scalar subqueries, and dynamic SQL
// stay silent.
//
// Severity calibration mirrors the engine. Constructs the engine
// rejects deterministically whenever the expression is evaluated
// (DATE+DATE, string arithmetic, division by a constant zero) are
// errors; constructs it executes but that cannot mean what was written
// (incomparable comparisons that are always UNKNOWN, conditions of a
// kind that is never TRUE, silently-coerced assignment mismatches) are
// warnings.

// inferKind returns the statically-known runtime kind of e, or
// types.KindNull when it cannot be determined.
func (c *checker) inferKind(e sqlast.Expr, sc *scope) types.Kind {
	switch x := e.(type) {
	case *sqlast.Literal:
		return x.Val.Kind
	case *sqlast.ColumnRef:
		return c.refKind(x, sc)
	case *sqlast.BinaryExpr:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return types.KindBool
		case "||":
			return types.KindString
		}
		k, _ := arithKind(x.Op, c.inferKind(x.L, sc), c.inferKind(x.R, sc))
		return k
	case *sqlast.UnaryExpr:
		if x.Op == "NOT" {
			return types.KindBool
		}
		if k := c.inferKind(x.X, sc); k == types.KindInt || k == types.KindFloat {
			return k
		}
		return types.KindNull
	case *sqlast.IsNullExpr, *sqlast.BetweenExpr, *sqlast.InExpr,
		*sqlast.ExistsExpr, *sqlast.LikeExpr:
		return types.KindBool
	case *sqlast.CaseExpr:
		k := types.KindNull
		for _, w := range x.Whens {
			k = mergeKind(k, c.inferKind(w.Then, sc))
		}
		if x.Else != nil {
			k = mergeKind(k, c.inferKind(x.Else, sc))
		}
		return k
	case *sqlast.CastExpr:
		if x.Type.IsCollection() {
			return types.KindNull
		}
		return x.Type.Kind()
	case *sqlast.FuncCall:
		return c.callKind(x, sc)
	}
	return types.KindNull
}

// refKind resolves a column reference's kind the way columnRef
// resolves its name: FROM bindings first, then variables.
func (c *checker) refKind(x *sqlast.ColumnRef, sc *scope) types.Kind {
	if e := sc.entry(x); e != nil {
		return e.kindOf(x.Column)
	}
	if x.Table == "" {
		if i := c.bound(sc.env.Name(x.Column)); i >= 0 && !c.decl(i).IsTable() {
			return c.decl(i).Type.Kind()
		}
	}
	return types.KindNull
}

// callKind infers a function call's result kind: stored functions from
// their declared return type, library functions from their row.
func (c *checker) callKind(x *sqlast.FuncCall, sc *scope) types.Kind {
	if fn := c.cat.Function(x.Name); fn != nil {
		if fn.Returns.IsCollection() {
			return types.KindTable
		}
		return fn.Returns.Kind()
	}
	upper := strings.ToUpper(x.Name)
	if sqlast.IsAggregate(upper) {
		switch upper {
		case "COUNT":
			return types.KindInt
		case "MIN", "MAX":
			if len(x.Args) == 1 {
				return c.inferKind(x.Args[0], sc)
			}
		}
		return types.KindNull
	}
	if bi := types.BuiltinNamed(x.Name); bi != nil {
		first := types.KindNull
		if len(x.Args) > 0 {
			first = c.inferKind(x.Args[0], sc)
		}
		return bi.ResultKind(first)
	}
	return types.KindNull
}

// mergeKind folds branch kinds: the common kind when they agree,
// unknown otherwise. NULL-typed branches (NULL literals) are neutral.
func mergeKind(a, b types.Kind) types.Kind {
	switch {
	case a == types.KindNull:
		return b
	case b == types.KindNull || a == b:
		return a
	}
	return types.KindNull
}

// arithKind runs the engine's types.Arith on one non-NULL value of each
// kind: the result's kind, or the engine's refusal. KindNull, with no
// error, when either kind is statically unknown.
func arithKind(op string, l, r types.Kind) (types.Kind, error) {
	if l == types.KindNull || r == types.KindNull {
		return types.KindNull, nil
	}
	v, err := types.Arith(op, types.Sample(l), types.Sample(r))
	return v.Kind, err
}

// exprPos finds a position to anchor an expression diagnostic on: the
// first positioned node inside e, else the checker's current statement.
func (c *checker) exprPos(e sqlast.Expr) sqlscan.Pos {
	if p := findExprPos(e); p != (sqlscan.Pos{}) {
		return p
	}
	return c.curPos
}

func findExprPos(e sqlast.Expr) sqlscan.Pos {
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		return x.Pos
	case *sqlast.FuncCall:
		return x.Pos
	case *sqlast.BinaryExpr:
		if p := findExprPos(x.L); p != (sqlscan.Pos{}) {
			return p
		}
		return findExprPos(x.R)
	case *sqlast.UnaryExpr:
		return findExprPos(x.X)
	case *sqlast.IsNullExpr:
		return findExprPos(x.X)
	case *sqlast.BetweenExpr:
		return findExprPos(x.X)
	case *sqlast.InExpr:
		return findExprPos(x.X)
	case *sqlast.LikeExpr:
		return findExprPos(x.X)
	case *sqlast.CastExpr:
		return findExprPos(x.X)
	case *sqlast.CaseExpr:
		if p := findExprPos(x.Operand); p != (sqlscan.Pos{}) {
			return p
		}
		for _, w := range x.Whens {
			if p := findExprPos(w.When); p != (sqlscan.Pos{}) {
				return p
			}
			if p := findExprPos(w.Then); p != (sqlscan.Pos{}) {
				return p
			}
		}
		return findExprPos(x.Else)
	case *sqlast.SubqueryExpr:
		if sel, ok := x.Query.(*sqlast.SelectStmt); ok {
			return sel.Pos
		}
	}
	return sqlscan.Pos{}
}

// checkBinary types one binary operation against the engine's runtime
// rules.
func (c *checker) checkBinary(x *sqlast.BinaryExpr, sc *scope) {
	switch x.Op {
	case "AND", "OR", "||":
		return
	case "=", "<>", "<", "<=", ">", ">=":
		l, r := c.inferKind(x.L, sc), c.inferKind(x.R, sc)
		if l == types.KindNull || r == types.KindNull {
			return
		}
		// A pairing types.Compare decides for no pair of scalar values
		// (string against numeric; a string against a date depends on
		// its content).
		if _, ok := types.Compare(types.Sample(l), types.Sample(r)); !ok && l != types.KindTable && r != types.KindTable {
			c.add(CodeIncomparable, Warning, c.exprPos(x),
				"comparison of %s and %s is always UNKNOWN", l, r)
		}
		return
	case "+", "-", "*", "/":
		if x.Op == "/" {
			if v, ok := engine.FoldLiterals(x.R); ok && !v.IsNull() && isNumeric(v.Kind) && v.Float() == 0 {
				c.add(CodeConstDivZero, Error, c.exprPos(x), "division by zero")
				return
			}
		}
		l, r := c.inferKind(x.L, sc), c.inferKind(x.R, sc)
		if _, err := arithKind(x.Op, l, r); err != nil {
			hint := ""
			if (l == types.KindString || r == types.KindString) && l != types.KindDate && r != types.KindDate {
				hint = " (use || for concatenation)"
			}
			c.add(CodeBadArith, Error, c.exprPos(x), "cannot apply %s to %s and %s%s", x.Op, l, r, hint)
		}
	}
}

// checkUnary types a unary operation: the engine evaluates -x as 0 - x,
// which it refuses for a string or a date.
func (c *checker) checkUnary(x *sqlast.UnaryExpr, sc *scope) {
	if x.Op != "-" {
		return
	}
	k := c.inferKind(x.X, sc)
	if _, err := arithKind("-", types.KindInt, k); err != nil {
		c.add(CodeBadArith, Error, c.exprPos(x), "cannot negate a %s value", k)
	}
}

func isNumeric(k types.Kind) bool {
	return k == types.KindInt || k == types.KindFloat || k == types.KindBool
}

// condition checks a predicate position (IF/WHILE/UNTIL/WHERE/HAVING):
// a condition of a scalar kind whose every value types.TriboolFromValue
// reads as not TRUE — a string, a date, a float — can never pass.
func (c *checker) condition(e sqlast.Expr, pos sqlscan.Pos, sc *scope) {
	if e == nil {
		return
	}
	if k := c.inferKind(e, sc); k != types.KindNull && k != types.KindTable && types.TriboolFromValue(types.Sample(k)) != types.True {
		if p := findExprPos(e); p != (sqlscan.Pos{}) {
			pos = p
		}
		c.add(CodeNonBoolCond, Warning, pos,
			"condition has type %s and can never be TRUE", k)
	}
}

// assignable is the warning policy for an assignment types.Convert
// performs: silent for exact matches, the numeric kinds among themselves,
// any value into a string target (its text), and strings or integers into
// a date target (a date's spelling, a day number).
func assignable(tgt, val types.Kind) bool {
	if tgt == types.KindNull || val == types.KindNull || tgt == val {
		return true
	}
	switch tgt {
	case types.KindString:
		return true
	case types.KindDate:
		return val == types.KindString || val == types.KindInt
	case types.KindInt, types.KindFloat, types.KindBool:
		return isNumeric(val)
	}
	return false
}

// checkAssign reports an assignment-shaped type mismatch (SET,
// DECLARE ... DEFAULT, RETURN, arguments, INSERT/UPDATE values). Where
// the engine's types.Convert raises — on a literal, or on every value of
// the kind inferred — the assignment is an error with Convert's message;
// otherwise assignable decides whether it warns.
func (c *checker) checkAssign(code string, tgt types.Kind, e sqlast.Expr, sc *scope, pos sqlscan.Pos, what string) {
	if e == nil || tgt == types.KindNull {
		return
	}
	val := c.inferKind(e, sc)
	if val == types.KindNull {
		return
	}
	v := types.Sample(val)
	if lit, ok := e.(*sqlast.Literal); ok {
		v = lit.Val
	}
	if _, err := types.Convert(v, tgt); err != nil {
		c.add(code, Error, pos, "%s: %v", what, err)
	} else if !assignable(tgt, val) {
		c.add(code, Warning, pos, "%s: %s value where %s is expected", what, val, tgt)
	}
}

// checkArgs types a routine invocation's arguments against the
// callee's declared parameter types (IN parameters only; OUT/INOUT
// binding is checked by callStmt).
func (c *checker) checkArgs(name string, params []sqlast.ParamDef, args []sqlast.Expr, sc *scope, pos sqlscan.Pos) {
	if len(args) != len(params) {
		return
	}
	for i, a := range args {
		p := params[i]
		if p.Mode != sqlast.ModeIn || p.Type.IsCollection() {
			continue
		}
		apos := findExprPos(a)
		if apos == (sqlscan.Pos{}) {
			apos = pos
		}
		c.checkAssign(CodeArgMismatch, p.Type.Kind(), a, sc, apos,
			fmt.Sprintf("argument %d of %s (parameter %s)", i+1, name, p.Name))
	}
}

// insertShape checks an INSERT's arity and value kinds against the
// target's columns. Temporal targets accept rows with or without the
// trailing begin_time/end_time pair — the stratum's current-semantics
// transform supplies the period when the user omits it.
func (c *checker) insertShape(x *sqlast.InsertStmt, cols []string, kinds []types.Kind, sc *scope) {
	if cols == nil {
		return
	}
	targetCols := cols
	targetKinds := kinds
	if len(x.Cols) > 0 {
		targetCols = x.Cols
		targetKinds = nil
		if kinds != nil {
			targetKinds = make([]types.Kind, len(x.Cols))
			for i, name := range x.Cols {
				targetKinds[i] = types.KindNull
				for j, cn := range cols {
					if j < len(kinds) && strings.EqualFold(cn, name) {
						targetKinds[i] = kinds[j]
						break
					}
				}
			}
		}
	}
	arities := []int{len(targetCols)}
	if len(x.Cols) == 0 && c.cat.IsTemporalTable(x.Table) && len(targetCols) >= 2 {
		arities = append(arities, len(targetCols)-2)
	}
	okArity := func(n int) bool {
		for _, a := range arities {
			if n == a {
				return true
			}
		}
		return false
	}
	switch src := x.Source.(type) {
	case *sqlast.ValuesExpr:
		for _, row := range src.Rows {
			if !okArity(len(row)) {
				c.add(CodeInsertArity, c.tableSev(), x.Pos,
					"INSERT into %s: %d values for %d columns", x.Table, len(row), len(targetCols))
				continue
			}
			if targetKinds == nil {
				continue
			}
			for i, e := range row {
				if i >= len(targetKinds) {
					break
				}
				pos := findExprPos(e)
				if pos == (sqlscan.Pos{}) {
					pos = x.Pos
				}
				c.checkAssign(CodeInsertMismatch, targetKinds[i], e, sc, pos,
					"INSERT into "+x.Table+" column "+targetCols[i])
			}
		}
	case *sqlast.SelectStmt:
		n := 0
		for _, it := range src.Items {
			if it.Star || it.TableStar != "" {
				return
			}
			n++
		}
		if !okArity(n) {
			c.add(CodeInsertArity, c.tableSev(), x.Pos,
				"INSERT into %s: query yields %d columns for %d target columns", x.Table, n, len(targetCols))
		}
	}
}
