package engine

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// evalFuncCall dispatches a function invocation: stored routines take
// precedence over builtins, matching a DBMS where user definitions
// shadow library functions of the same name. The catalog is asked on
// every call, so a function created mid-statement shadows at once.
// fromSite marks the call of a FROM source (see callFunction).
func (db *DB) evalFuncCall(ctx *execCtx, fc *sqlast.FuncCall, fromSite bool) (types.Value, error) {
	if isAggregate(fc.Name) {
		return types.Null, fmt.Errorf("aggregate %s used outside an aggregation context", fc.Name)
	}
	if r := db.Cat.Routine(fc.Name); r != nil && r.Kind == storage.KindFunction {
		return db.callFunction(ctx, r, fc.Args, fromSite)
	}
	return db.evalBuiltin(ctx, fc)
}

func (db *DB) evalBuiltin(ctx *execCtx, fc *sqlast.FuncCall) (types.Value, error) {
	name := strings.ToUpper(fc.Name)
	var few [4]types.Value // as in callFunction: the arguments stay off the heap
	args := few[:]
	if len(fc.Args) > len(few) {
		args = make([]types.Value, len(fc.Args))
	}
	for i, a := range fc.Args {
		// COALESCE evaluates lazily.
		if name == "COALESCE" {
			break
		}
		v, err := db.evalExpr(ctx, a)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	arity := func(n int) error {
		if len(fc.Args) != n {
			return fmt.Errorf("%s expects %d argument(s), got %d", name, n, len(fc.Args))
		}
		return nil
	}
	switch name {
	case "CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP":
		return types.NewDate(db.Now), nil
	case "FIRST_INSTANCE":
		// The earlier of two instants (paper Figure 4).
		if err := arity(2); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		if c, ok := types.Compare(args[0], args[1]); ok && c > 0 {
			return args[1], nil
		}
		return args[0], nil
	case "LAST_INSTANCE":
		// The later of two instants (paper Figure 4).
		if err := arity(2); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		if c, ok := types.Compare(args[0], args[1]); ok && c < 0 {
			return args[1], nil
		}
		return args[0], nil
	case "UPPER", "UCASE":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToUpper(args[0].Text())), nil
	case "LOWER", "LCASE":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToLower(args[0].Text())), nil
	case "LENGTH", "CHAR_LENGTH", "CHARACTER_LENGTH":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt(int64(len(args[0].Text()))), nil
	case "TRIM":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.TrimSpace(args[0].Text())), nil
	case "SUBSTR", "SUBSTRING":
		if len(fc.Args) != 2 && len(fc.Args) != 3 {
			return types.Null, fmt.Errorf("%s expects 2 or 3 arguments", name)
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		s := args[0].Text()
		start := int(args[1].Int()) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(fc.Args) == 3 {
			if n := int(args[2].Int()); start+n < end {
				end = start + n
			}
		}
		return types.NewString(s[start:end]), nil
	case "ABS":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		if args[0].Kind == types.KindFloat {
			f := args[0].F
			if f < 0 {
				f = -f
			}
			return types.NewFloat(f), nil
		}
		n := args[0].Int()
		if n < 0 {
			n = -n
		}
		return types.NewInt(n), nil
	case "MOD":
		if err := arity(2); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		d := args[1].Int()
		if d == 0 {
			return types.Null, fmt.Errorf("MOD by zero")
		}
		return types.NewInt(args[0].Int() % d), nil
	case "COALESCE":
		for _, a := range fc.Args {
			v, err := db.evalExpr(ctx, a)
			if err != nil {
				return types.Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return types.Null, nil
	case "NULLIF":
		if err := arity(2); err != nil {
			return types.Null, err
		}
		if types.CompareOp("=", args[0], args[1]) == types.True {
			return types.Null, nil
		}
		return args[0], nil
	case "YEAR":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		y, _, _ := types.DaysToCivil(args[0].Int())
		return types.NewInt(int64(y)), nil
	case "MONTH":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		_, m, _ := types.DaysToCivil(args[0].Int())
		return types.NewInt(int64(m)), nil
	case "DAY":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		_, _, d := types.DaysToCivil(args[0].Int())
		return types.NewInt(int64(d)), nil
	case "DATE":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		return castValue(args[0], sqlast.TypeName{Base: "DATE"})
	}
	return types.Null, fmt.Errorf("unknown function %s", fc.Name)
}
