package engine

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// builtin is a library function as a call site binds it: which one, and
// the argument counts it accepts. The zero value is no builtin at all.
type builtin struct {
	id       uint8
	min, max int
}

const (
	_ = iota
	biNow
	biFirstInstance
	biLastInstance
	biUpper
	biLower
	biLength
	biTrim
	biSubstr
	biAbs
	biMod
	biCoalesce
	biNullIf
	biYear
	biMonth
	biDay
	biDate
)

// builtins maps the upper-cased name of each library function
// (sqlast.BuiltinArity, which has the argument counts) to its
// implementation. A call site consults both when it binds (callSite.eval)
// — after the catalog, so a stored function shadows a library function of
// its name — and not again until the schema changes.
var builtins = map[string]uint8{
	"CURRENT_DATE": biNow, "CURRENT_TIME": biNow, "CURRENT_TIMESTAMP": biNow,
	"FIRST_INSTANCE": biFirstInstance, "LAST_INSTANCE": biLastInstance,
	"UPPER": biUpper, "UCASE": biUpper, "LOWER": biLower, "LCASE": biLower,
	"LENGTH": biLength, "CHAR_LENGTH": biLength, "CHARACTER_LENGTH": biLength,
	"TRIM": biTrim, "SUBSTR": biSubstr, "SUBSTRING": biSubstr,
	"ABS": biAbs, "MOD": biMod, "COALESCE": biCoalesce, "NULLIF": biNullIf,
	"YEAR": biYear, "MONTH": biMonth, "DAY": biDay, "DATE": biDate,
}

// builtinNamed returns the library function of that name, any case; the
// zero builtin when there is none.
func builtinNamed(name string) builtin {
	name = strings.ToUpper(name)
	ar := sqlast.BuiltinArity[name]
	return builtin{id: builtins[name], min: ar[0], max: ar[1]}
}

// callBuiltin runs the builtin a call site bound. Arguments are
// evaluated first, left to right — COALESCE's lazily — so an argument
// that raises does so before a wrong count or an unknown name is
// reported.
func (db *DB) callBuiltin(ctx *execCtx, s *callSite, bi builtin) (types.Value, error) {
	if bi.id == biCoalesce {
		for _, a := range s.args {
			v, err := a(ctx)
			if err != nil || !v.IsNull() {
				return v, err
			}
		}
		return types.Null, nil
	}
	var few [4]types.Value // as in callFunction: the arguments stay off the heap
	args := few[:]
	if len(s.args) > len(few) {
		args = make([]types.Value, len(s.args))
	}
	args = args[:len(s.args)]
	for i, a := range s.args {
		v, err := a(ctx)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	switch n := len(args); {
	case bi.id == 0:
		return types.Null, fmt.Errorf("unknown function %s", s.fc.Name)
	case n >= bi.min && n <= bi.max:
	case bi.min == bi.max:
		return types.Null, fmt.Errorf("%s expects %d argument(s), got %d", strings.ToUpper(s.fc.Name), bi.min, n)
	default:
		return types.Null, fmt.Errorf("%s expects %d or %d arguments", strings.ToUpper(s.fc.Name), bi.min, bi.max)
	}
	switch bi.id {
	case biNow:
		return types.NewDate(db.Now), nil
	case biNullIf:
		if types.OpEq.Compare(&args[0], &args[1]) == types.True {
			return types.Null, nil
		}
		return args[0], nil
	case biDate:
		return castValue(args[0], sqlast.TypeName{Base: "DATE"})
	}
	// The rest are NULL on a NULL argument (SUBSTR: on a NULL string).
	for i := range args {
		if args[i].IsNull() && (i == 0 || bi.id != biSubstr) {
			return types.Null, nil
		}
	}
	switch bi.id {
	case biFirstInstance: // the earlier of two instants (paper Figure 4)
		if c, ok := types.Compare(args[0], args[1]); ok && c > 0 {
			return args[1], nil
		}
		return args[0], nil
	case biLastInstance: // the later of two instants (paper Figure 4)
		if c, ok := types.Compare(args[0], args[1]); ok && c < 0 {
			return args[1], nil
		}
		return args[0], nil
	case biUpper:
		return types.NewString(strings.ToUpper(args[0].Text())), nil
	case biLower:
		return types.NewString(strings.ToLower(args[0].Text())), nil
	case biLength:
		return types.NewInt(int64(len(args[0].Text()))), nil
	case biTrim:
		return types.NewString(strings.TrimSpace(args[0].Text())), nil
	case biSubstr:
		str := args[0].Text()
		start := min(max(int(args[1].Int())-1, 0), len(str))
		end := len(str)
		if len(args) == 3 {
			if n := int(args[2].Int()); start+n < end {
				end = start + n
			}
		}
		return types.NewString(str[start:end]), nil
	case biAbs:
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
	case biMod:
		d := args[1].Int()
		if d == 0 {
			return types.Null, fmt.Errorf("MOD by zero")
		}
		return types.NewInt(args[0].Int() % d), nil
	}
	y, m, d := types.DaysToCivil(args[0].Int())
	switch bi.id {
	case biYear:
		return types.NewInt(int64(y)), nil
	case biMonth:
		return types.NewInt(int64(m)), nil
	}
	return types.NewInt(int64(d)), nil
}
