package types

import (
	"fmt"
	"math"
	"strings"
)

// Builtin is a library function: a function whose name no CREATE FUNCTION
// gave. Its row is the one description of it — the parser reads whether
// its name is a call without parentheses, the analyzer its argument counts
// and its result kind, the engine binds a call site to it and runs it.
type Builtin struct {
	Min, Max int  // the argument counts it accepts
	Result   Kind // its value's kind; KindNull when the arguments decide (ResultKind)
	// Clock marks CURRENT_DATE and its synonyms, which the engine answers
	// with the session's date and the parser reads without parentheses;
	// Lazy marks COALESCE, whose arguments the engine evaluates itself,
	// left to right, up to the first that is not NULL.
	Clock, Lazy bool
	fn          builtinFn
}

type builtinFn uint8

const (
	fnClock builtinFn = iota
	fnFirstInstance
	fnLastInstance
	fnUpper
	fnLower
	fnLength
	fnTrim
	fnSubstr
	fnAbs
	fnMod
	fnCoalesce
	fnNullIf
	fnYear
	fnMonth
	fnDay
	fnDate
)

var (
	clock    = &Builtin{Min: 0, Max: math.MaxInt, Result: KindDate, Clock: true, fn: fnClock}
	upper    = &Builtin{Min: 1, Max: 1, Result: KindString, fn: fnUpper}
	lower    = &Builtin{Min: 1, Max: 1, Result: KindString, fn: fnLower}
	length   = &Builtin{Min: 1, Max: 1, Result: KindInt, fn: fnLength}
	substr   = &Builtin{Min: 2, Max: 3, Result: KindString, fn: fnSubstr}
	coalesce = &Builtin{Min: 0, Max: math.MaxInt, Lazy: true, fn: fnCoalesce}
)

// Builtins maps the upper-cased name of each library function to its row;
// synonyms share one.
var Builtins = map[string]*Builtin{
	"CURRENT_DATE": clock, "CURRENT_TIME": clock, "CURRENT_TIMESTAMP": clock,
	"FIRST_INSTANCE": {Min: 2, Max: 2, Result: KindDate, fn: fnFirstInstance},
	"LAST_INSTANCE":  {Min: 2, Max: 2, Result: KindDate, fn: fnLastInstance},
	"UPPER":          upper, "UCASE": upper, "LOWER": lower, "LCASE": lower,
	"LENGTH": length, "CHAR_LENGTH": length, "CHARACTER_LENGTH": length,
	"TRIM":   {Min: 1, Max: 1, Result: KindString, fn: fnTrim},
	"SUBSTR": substr, "SUBSTRING": substr,
	"ABS":      {Min: 1, Max: 1, fn: fnAbs},
	"MOD":      {Min: 2, Max: 2, Result: KindInt, fn: fnMod},
	"COALESCE": coalesce,
	"NULLIF":   {Min: 2, Max: 2, fn: fnNullIf},
	"YEAR":     {Min: 1, Max: 1, Result: KindInt, fn: fnYear},
	"MONTH":    {Min: 1, Max: 1, Result: KindInt, fn: fnMonth},
	"DAY":      {Min: 1, Max: 1, Result: KindInt, fn: fnDay},
	"DATE":     {Min: 1, Max: 1, Result: KindDate, fn: fnDate},
}

// BuiltinNamed returns the row of the library function of that name, any
// case; nil when there is none.
func BuiltinNamed(name string) *Builtin { return Builtins[strings.ToUpper(name)] }

// Arity is the error of a call of the function, written name, with n
// arguments — the engine's and the checker's text — or nil when it takes
// n.
func (b *Builtin) Arity(name string, n int) error {
	switch {
	case n >= b.Min && n <= b.Max:
		return nil
	case b.Min == b.Max:
		return fmt.Errorf("%s expects %d argument(s), got %d", strings.ToUpper(name), b.Min, n)
	}
	return fmt.Errorf("%s expects %d or %d arguments", strings.ToUpper(name), b.Min, b.Max)
}

// ResultKind is the kind of a call's value when its first argument has
// kind first (KindNull: unknown): Result, unless the arguments decide —
// NULLIF's is its first argument's, ABS's an INTEGER unless that is a
// FLOAT, and COALESCE's unknown.
func (b *Builtin) ResultKind(first Kind) Kind {
	switch b.fn {
	case fnNullIf:
		return first
	case fnAbs:
		if first == KindNull || first == KindFloat {
			return first
		}
		return KindInt
	}
	return b.Result
}

// Call runs the function on its evaluated arguments, of a count it
// accepts. A Clock or a Lazy row is the engine's to answer.
func (b *Builtin) Call(args []Value) (Value, error) {
	switch b.fn {
	case fnClock, fnCoalesce:
		return Null, fmt.Errorf("the engine evaluates CURRENT_DATE and COALESCE")
	case fnNullIf:
		if OpEq.Compare(&args[0], &args[1]) == True {
			return Null, nil
		}
		return args[0], nil
	case fnDate:
		return Convert(args[0], KindDate)
	}
	// The rest are NULL on a NULL argument (SUBSTR: on a NULL string).
	for i := range args {
		if args[i].IsNull() && (i == 0 || b.fn != fnSubstr) {
			return Null, nil
		}
	}
	switch b.fn {
	case fnFirstInstance: // the earlier of two instants (paper Figure 4)
		if c, ok := Compare(args[0], args[1]); ok && c > 0 {
			return args[1], nil
		}
		return args[0], nil
	case fnLastInstance: // the later of two instants (paper Figure 4)
		if c, ok := Compare(args[0], args[1]); ok && c < 0 {
			return args[1], nil
		}
		return args[0], nil
	case fnUpper:
		return NewString(strings.ToUpper(args[0].Text())), nil
	case fnLower:
		return NewString(strings.ToLower(args[0].Text())), nil
	case fnLength:
		return NewInt(int64(len(args[0].Text()))), nil
	case fnTrim:
		return NewString(strings.TrimSpace(args[0].Text())), nil
	case fnSubstr: // SUBSTR(s, start[, n]); a negative n is SQL's substring error, 22011
		s := args[0].Text()
		start, end := int64(0), int64(len(s))
		if p := args[1].Int(); p > 1 {
			start = min(p-1, end)
		}
		if len(args) == 3 {
			if n := args[2].Int(); n < 0 {
				return Null, fmt.Errorf("substring error: negative length %d", n)
			} else if n < end-start {
				end = start + n
			}
		}
		return NewString(s[start:end]), nil
	case fnAbs:
		if f := args[0].F; args[0].Kind == KindFloat {
			if f < 0 {
				f = -f
			}
			return NewFloat(f), nil
		}
		n := args[0].Int()
		if n < 0 {
			n = -n
		}
		return NewInt(n), nil
	case fnMod:
		d := args[1].Int()
		if d == 0 {
			return Null, fmt.Errorf("MOD by zero")
		}
		return NewInt(args[0].Int() % d), nil
	}
	// YEAR, MONTH and DAY read their argument as a DATE.
	d, err := Convert(args[0], KindDate)
	if err != nil {
		return Null, err
	}
	y, m, day := DaysToCivil(d.I)
	switch b.fn {
	case fnYear:
		return NewInt(int64(y)), nil
	case fnMonth:
		return NewInt(int64(m)), nil
	}
	return NewInt(int64(day)), nil
}
