package types

import (
	"math"
	"strings"
	"testing"
)

// show renders a conversion's outcome: the value's kind and text, or the
// error.
func show(v Value, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return v.Kind.String() + " " + v.Text()
}

// Convert is CAST at the kind level: every source kind against every
// target kind, on NULL, a typical value and an edge value, pinned to what
// CAST has always answered.
func TestConvertMatrix(t *testing.T) {
	sources := []Value{
		Null,
		NewInt(42), NewInt(0),
		NewFloat(2.7), NewFloat(-0.5),
		NewString("2010-03-05"), NewString(" 7 "),
		NewBool(true), NewBool(false),
		NewDate(MustDate(2010, 3, 5)), NewDate(Forever),
	}
	targets := []Kind{KindInt, KindFloat, KindString, KindBool, KindDate}
	want := map[string][5]string{
		"NULL NULL":          {"NULL NULL", "NULL NULL", "NULL NULL", "NULL NULL", "NULL NULL"},
		"INTEGER 42":         {"INTEGER 42", "FLOAT 42.0", "VARCHAR 42", "BOOLEAN TRUE", "DATE 1970-02-12"},
		"INTEGER 0":          {"INTEGER 0", "FLOAT 0.0", "VARCHAR 0", "BOOLEAN FALSE", "DATE 1970-01-01"},
		"FLOAT 2.7":          {"INTEGER 2", "FLOAT 2.7", "VARCHAR 2.7", "BOOLEAN FALSE", "error: cannot cast FLOAT to DATE"},
		"FLOAT -0.5":         {"INTEGER 0", "FLOAT -0.5", "VARCHAR -0.5", "BOOLEAN FALSE", "error: cannot cast FLOAT to DATE"},
		"VARCHAR 2010-03-05": {"INTEGER 0", "FLOAT 0.0", "VARCHAR 2010-03-05", "BOOLEAN FALSE", "DATE 2010-03-05"},
		"VARCHAR  7 ":        {"INTEGER 7", "FLOAT 7.0", "VARCHAR  7 ", "BOOLEAN FALSE", `error: invalid DATE literal "7" (want YYYY-MM-DD)`},
		"BOOLEAN TRUE":       {"INTEGER 1", "FLOAT 1.0", "VARCHAR TRUE", "BOOLEAN TRUE", "error: cannot cast BOOLEAN to DATE"},
		"BOOLEAN FALSE":      {"INTEGER 0", "FLOAT 0.0", "VARCHAR FALSE", "BOOLEAN FALSE", "error: cannot cast BOOLEAN to DATE"},
		"DATE 2010-03-05":    {"INTEGER 14673", "FLOAT 14673.0", "VARCHAR 2010-03-05", "BOOLEAN FALSE", "DATE 2010-03-05"},
		"DATE 9999-12-31":    {"INTEGER 2932896", "FLOAT 2932896.0", "VARCHAR 9999-12-31", "BOOLEAN FALSE", "DATE 9999-12-31"},
	}
	for _, v := range sources {
		row, ok := want[show(v, nil)]
		if !ok {
			t.Fatalf("no expectation for %s", show(v, nil))
		}
		for i, k := range targets {
			if got := show(Convert(v, k)); got != row[i] {
				t.Errorf("Convert(%s, %s) = %s, want %s", show(v, nil), k, got, row[i])
			}
		}
		// A target of no declared kind keeps the value; a table is no
		// scalar's target.
		if got, err := Convert(v, KindNull); err != nil || got != v {
			t.Errorf("Convert(%s, NULL) = %s", show(v, nil), show(got, err))
		}
		if got, err := Convert(v, KindTable); !v.IsNull() && err == nil {
			t.Errorf("Convert(%s, TABLE) = %s, want an error", show(v, nil), show(got, err))
		}
	}
}

// builtinArgs are the arguments every library function is called on:
// NULL, negative, zero, huge and of every wrong kind.
var builtinArgs = []Value{
	Null, NewInt(-1), NewInt(0), NewInt(math.MaxInt64), NewInt(math.MinInt64),
	NewFloat(-1e300), NewFloat(math.NaN()), NewString(""), NewString("abc"),
	NewString("2010-03-05"), NewBool(true), NewDate(Forever), NewTable(nil),
}

// No library function panics, whatever its arguments: every row is
// called with every count it accepts (up to three) on every combination
// of builtinArgs.
func TestBuiltinsNeverPanic(t *testing.T) {
	for name, b := range Builtins {
		for n := b.Min; n <= min(b.Max, 3); n++ {
			args := make([]Value, n)
			var call func(i int)
			call = func(i int) {
				if i == n {
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%s%v panics: %v", name, args, r)
							}
						}()
						b.Call(args)
					}()
					return
				}
				for _, a := range builtinArgs {
					args[i] = a
					call(i + 1)
				}
			}
			call(0)
		}
	}
}

// The library functions' edge cases: SUBSTR's length, YEAR / MONTH / DAY
// reading their argument as a DATE.
func TestBuiltinEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []Value
		want string
	}{
		{"SUBSTR", []Value{NewString("abc"), NewInt(2), NewInt(-1)}, "error: substring error: negative length -1"},
		{"SUBSTR", []Value{NewString("abc"), NewInt(2), NewInt(math.MaxInt64)}, "VARCHAR bc"},
		{"SUBSTR", []Value{NewString("abc"), NewInt(math.MinInt64), NewInt(2)}, "VARCHAR ab"},
		{"SUBSTR", []Value{NewString("abc"), NewInt(9), NewInt(2)}, "VARCHAR "},
		{"SUBSTR", []Value{NewString("abc"), NewInt(2), Null}, "VARCHAR "},
		{"SUBSTRING", []Value{NewString("hello"), NewInt(2), NewInt(3)}, "VARCHAR ell"},
		{"YEAR", []Value{NewString("2010-03-05")}, "INTEGER 2010"},
		{"MONTH", []Value{NewString("2010-03-05")}, "INTEGER 3"},
		{"DAY", []Value{NewString(" 2010-03-05 ")}, "INTEGER 5"},
		{"YEAR", []Value{NewInt(0)}, "INTEGER 1970"},
		{"YEAR", []Value{NewString("March")}, `error: invalid DATE literal "March" (want YYYY-MM-DD)`},
		{"DAY", []Value{NewFloat(1.5)}, "error: cannot cast FLOAT to DATE"},
		{"ABS", []Value{NewString("-5")}, "INTEGER 5"},
		{"ABS", []Value{NewFloat(-2.5)}, "FLOAT 2.5"},
		{"NULLIF", []Value{NewInt(1), NewFloat(1)}, "NULL NULL"},
		{"DATE", []Value{NewInt(1)}, "DATE 1970-01-02"},
	} {
		if got := show(BuiltinNamed(strings.ToLower(tc.name)).Call(tc.args)); got != tc.want {
			t.Errorf("%s%v = %s, want %s", tc.name, tc.args, got, tc.want)
		}
	}
}
