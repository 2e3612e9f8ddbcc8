package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null must be null")
	}
	if v := NewInt(42); v.Int() != 42 || v.Float() != 42 || v.Text() != "42" {
		t.Fatalf("int value: %+v", v)
	}
	if v := NewFloat(2.5); v.Float() != 2.5 || v.Int() != 2 || v.Text() != "2.5" {
		t.Fatalf("float value: %+v", v)
	}
	if v := NewFloat(3); v.Text() != "3.0" {
		t.Fatalf("whole float renders with decimal: %q", v.Text())
	}
	if v := NewString("hi"); v.Text() != "hi" {
		t.Fatalf("string value: %+v", v)
	}
	if v := NewBool(true); !v.Bool() || v.Text() != "TRUE" {
		t.Fatalf("bool value: %+v", v)
	}
	if v := NewBool(false); v.Bool() || v.Text() != "FALSE" {
		t.Fatalf("bool value: %+v", v)
	}
	d := MustDate(2010, 6, 15)
	if v := NewDate(d); v.Text() != "2010-06-15" {
		t.Fatalf("date value: %q", v.Text())
	}
	if NewString("123").Int() != 123 {
		t.Fatal("string to int coercion")
	}
	if NewString(" 2.5 ").Float() != 2.5 {
		t.Fatal("string to float coercion")
	}
}

func TestSQLLiteral(t *testing.T) {
	cases := map[string]Value{
		"NULL":              Null,
		"42":                NewInt(42),
		"'it''s'":           NewString("it's"),
		"DATE '2010-01-02'": NewDate(MustDate(2010, 1, 2)),
		"TRUE":              NewBool(true),
	}
	for want, v := range cases {
		if got := v.SQLLiteral(); got != want {
			t.Errorf("SQLLiteral(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestCompare(t *testing.T) {
	type tc struct {
		a, b Value
		cmp  int
		ok   bool
	}
	d1 := NewDate(MustDate(2010, 1, 1))
	d2 := NewDate(MustDate(2010, 1, 2))
	for _, c := range []tc{
		{NewInt(1), NewInt(2), -1, true},
		{NewInt(2), NewInt(2), 0, true},
		{NewInt(3), NewInt(2), 1, true},
		{NewInt(1), NewFloat(1.5), -1, true},
		{NewFloat(2.0), NewInt(2), 0, true},
		{NewString("a"), NewString("b"), -1, true},
		{NewString("a  "), NewString("a"), 0, true}, // CHAR trailing blanks
		{d1, d2, -1, true},
		{d1, NewString("2010-01-01"), 0, true}, // date vs date-literal string
		{NewString("2010-01-02"), d1, 1, true},
		{Null, NewInt(1), 0, false},
		{NewInt(1), Null, 0, false},
		{NewString("x"), NewInt(1), 0, false}, // incomparable
	} {
		cmp, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("Compare(%v, %v) = (%d, %v), want (%d, %v)", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestCompareAntisymmetryQuick(t *testing.T) {
	f := func(a, b int64) bool {
		c1, ok1 := Compare(NewInt(a), NewInt(b))
		c2, ok2 := Compare(NewInt(b), NewInt(a))
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashKeyAgreesWithEquality(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		eq := va.Equal(vb)
		hk := va.HashKey() == vb.HashKey()
		return eq == hk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// cross-kind: int and equal-valued float must collide
	if NewInt(7).HashKey() != NewFloat(7).HashKey() {
		t.Fatal("int 7 and float 7.0 must share a hash key")
	}
	if NewInt(7).HashKey() == NewFloat(7.5).HashKey() {
		t.Fatal("7 and 7.5 must not collide")
	}
	if Null.HashKey() == NewInt(0).HashKey() {
		t.Fatal("NULL must not collide with 0")
	}
	if NewString("a ").HashKey() != NewString("a").HashKey() {
		t.Fatal("trailing blanks must not affect string hash keys (CHAR semantics)")
	}
}

func TestTribool(t *testing.T) {
	if True.And(Unknown) != Unknown || False.And(Unknown) != False {
		t.Fatal("AND 3VL")
	}
	if True.Or(Unknown) != True || False.Or(Unknown) != Unknown {
		t.Fatal("OR 3VL")
	}
	if Unknown.Not() != Unknown || True.Not() != False || False.Not() != True {
		t.Fatal("NOT 3VL")
	}
	if !Unknown.Value().IsNull() {
		t.Fatal("Unknown renders as NULL")
	}
	if TriboolFromValue(Null) != Unknown {
		t.Fatal("NULL is Unknown")
	}
	if TriboolFromValue(NewInt(1)) != True || TriboolFromValue(NewInt(0)) != False {
		t.Fatal("integers as predicates")
	}
}

func TestArith(t *testing.T) {
	mustVal := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustVal(Arith("+", NewInt(2), NewInt(3))); got.Int() != 5 {
		t.Fatalf("2+3 = %v", got)
	}
	if got := mustVal(Arith("/", NewInt(7), NewInt(2))); got.Int() != 3 {
		t.Fatalf("integer division 7/2 = %v", got)
	}
	if got := mustVal(Arith("/", NewFloat(7), NewInt(2))); got.Float() != 3.5 {
		t.Fatalf("float division = %v", got)
	}
	if _, err := Arith("/", NewInt(1), NewInt(0)); err == nil {
		t.Fatal("expected division-by-zero error")
	}
	if got := mustVal(Arith("||", NewString("a"), NewString("b"))); got.S != "ab" {
		t.Fatalf("concat = %v", got)
	}
	// NULL propagation
	if got := mustVal(Arith("+", Null, NewInt(1))); !got.IsNull() {
		t.Fatal("NULL + 1 must be NULL")
	}
	// date arithmetic
	d := NewDate(MustDate(2010, 1, 31))
	if got := mustVal(Arith("+", d, NewInt(1))); got.Text() != "2010-02-01" {
		t.Fatalf("date + 1 = %v", got.Text())
	}
	if got := mustVal(Arith("-", d, NewInt(31))); got.Text() != "2009-12-31" {
		t.Fatalf("date - 31 = %v", got.Text())
	}
	d2 := NewDate(MustDate(2010, 3, 1))
	if got := mustVal(Arith("-", d2, d)); got.Int() != 29 {
		t.Fatalf("date - date = %v", got.Int())
	}
	if _, err := Arith("*", d, d2); err == nil {
		t.Fatal("expected error multiplying dates")
	}
}

func TestCompareOp(t *testing.T) {
	if CompareOp("=", NewInt(1), NewInt(1)) != True {
		t.Fatal("1 = 1")
	}
	if CompareOp("<>", NewInt(1), NewInt(2)) != True {
		t.Fatal("1 <> 2")
	}
	if CompareOp("<", Null, NewInt(1)) != Unknown {
		t.Fatal("NULL < 1 must be Unknown")
	}
	if CompareOp(">=", NewFloat(2), NewInt(2)) != True {
		t.Fatal("2.0 >= 2")
	}
}

func TestFloatTextStability(t *testing.T) {
	// very large floats should not render in fixed notation forever
	v := NewFloat(math.Pow(10, 16))
	if v.Text() == "" {
		t.Fatal("render failed")
	}
}

// AppendHashKey is the allocation-free spelling of HashKey: for every
// kind the bytes are the ones hash joins, grouping and the storage hash
// indexes have always keyed on, and appending leaves the prefix alone.
func TestAppendHashKeyMatchesHashKey(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "\x00N"},
		{NewInt(0), "\x010"},
		{NewInt(-42), "\x01-42"},
		{NewBool(true), "\x011"},
		{NewBool(false), "\x010"},
		{NewFloat(7), "\x017"}, // integral floats collide with integers
		{NewFloat(-3), "\x01-3"},
		{NewFloat(1e15), "\x028000000000000000p-3"}, // too large to normalize
		{NewFloat(7.5), "\x028444249301319680p-50"},
		{NewString(""), "\x03"},
		{NewString("ab"), "\x03ab"},
		{NewString("ab   "), "\x03ab"}, // CHAR padding is not significant
		{NewString("  ab"), "\x03  ab"},
		{NewDate(14610), "\x0414610"},
		{NewDate(-1), "\x04-1"},
		{NewTable(nil), "\x05"},
	}
	for _, c := range cases {
		if got := c.v.HashKey(); got != c.want {
			t.Errorf("%v: HashKey %q, want %q", c.v, got, c.want)
		}
		if got := string(c.v.AppendHashKey(nil)); got != c.v.HashKey() {
			t.Errorf("%v: AppendHashKey(nil) %q, HashKey %q", c.v, got, c.v.HashKey())
		}
		if got := string(c.v.AppendHashKey([]byte("k|"))); got != "k|"+c.want {
			t.Errorf("%v: AppendHashKey onto a prefix gave %q", c.v, got)
		}
	}
}
