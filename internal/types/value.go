// Package types defines the SQL value model used throughout taupsm:
// typed values with SQL NULL semantics, DATE arithmetic on epoch days,
// and the three-valued logic required by SQL predicates.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime kinds a Value can take.
type Kind uint8

const (
	// KindNull is the SQL NULL value (of any declared type).
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer (INTEGER, SMALLINT, BIGINT).
	KindInt
	// KindFloat is a 64-bit float (FLOAT, DOUBLE, DECIMAL).
	KindFloat
	// KindString is a character string (CHAR, VARCHAR).
	KindString
	// KindBool is a boolean (BOOLEAN and predicate results).
	KindBool
	// KindDate is a DATE stored as days since 1970-01-01.
	KindDate
	// KindTable is an engine-internal table-valued result (collection
	// types such as ROW(...) ARRAY). The payload lives in Aux.
	KindTable
)

// String returns the kind's SQL-ish name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	case KindTable:
		return "TABLE"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is a single SQL value. The zero Value is SQL NULL.
//
// The representation is a small tagged union: I holds integers, booleans
// (0/1) and dates (epoch days); F holds floats; S holds strings; Aux
// holds engine-internal payloads for table-valued results.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	Aux  any
}

// Null is the SQL NULL value.
var Null = Value{Kind: KindNull}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{Kind: KindInt, I: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{Kind: KindFloat, F: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{Kind: KindString, S: s} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool, I: 0}
}

// NewDate returns a DATE value from epoch days.
func NewDate(days int64) Value { return Value{Kind: KindDate, I: days} }

// NewTable returns an engine-internal table-valued Value.
func NewTable(aux any) Value { return Value{Kind: KindTable, Aux: aux} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Bool reports the value as a Go bool; NULL and non-booleans are false.
func (v Value) Bool() bool { return v.Kind == KindBool && v.I != 0 }

// Int returns the value as an int64, coercing floats by truncation.
func (v Value) Int() int64 {
	switch v.Kind {
	case KindInt, KindBool, KindDate:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindString:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		return n
	}
	return 0
}

// Float returns the value as a float64.
func (v Value) Float() float64 {
	switch v.Kind {
	case KindInt, KindBool, KindDate:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindString:
		f, _ := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		return f
	}
	return 0
}

// Text returns the value rendered as a string, the way a result row
// prints it. NULL renders as "NULL".
func (v Value) Text() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.FormatFloat(v.F, 'f', 1, 64)
		}
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindDate:
		return FormatDate(v.I)
	case KindTable:
		return "<table>"
	}
	return "?"
}

// SQLLiteral renders the value as a SQL literal usable in generated code.
func (v Value) SQLLiteral() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindDate:
		return "DATE '" + FormatDate(v.I) + "'"
	default:
		return v.Text()
	}
}

// Equal reports strict equality used by tests and hashing (NULL equals
// NULL here, unlike SQL comparison; use Compare for SQL semantics).
func (v Value) Equal(o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return v.Kind == o.Kind
	}
	c, ok := Compare(v, o)
	return ok && c == 0
}

// IsInstant reports whether v can stand for an instant: a DATE, or an
// INTEGER day number. Both compare by their integer payload, I.
func (v Value) IsInstant() bool { return v.Kind == KindDate || v.Kind == KindInt }

// numericKind reports whether k participates in numeric comparison.
func numericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindBool
}

// Compare compares two non-NULL values. It returns -1, 0 or +1 and
// ok=true when the values are comparable; ok=false when either side is
// NULL or the kinds are incomparable (SQL "unknown").
func Compare(a, b Value) (int, bool) {
	if a.Kind == KindNull || b.Kind == KindNull {
		return 0, false
	}
	switch {
	case a.Kind == KindString && b.Kind == KindString:
		// CHAR comparison ignores trailing blanks.
		as := strings.TrimRight(a.S, " ")
		bs := strings.TrimRight(b.S, " ")
		return strings.Compare(as, bs), true
	case a.Kind == KindDate && b.Kind == KindDate:
		return cmpInt(a.I, b.I), true
	case numericKind(a.Kind) && numericKind(b.Kind):
		if a.Kind == KindFloat || b.Kind == KindFloat {
			af, bf := a.Float(), b.Float()
			switch {
			case af < bf:
				return -1, true
			case af > bf:
				return 1, true
			}
			return 0, true
		}
		return cmpInt(a.I, b.I), true
	case a.Kind == KindDate && numericKind(b.Kind):
		return cmpInt(a.I, b.Int()), true
	case numericKind(a.Kind) && b.Kind == KindDate:
		return cmpInt(a.Int(), b.I), true
	case a.Kind == KindString && b.Kind == KindDate, a.Kind == KindDate && b.Kind == KindString:
		// A string compares with a DATE as the DATE it spells, if any.
		da, errA := Convert(a, KindDate)
		db, errB := Convert(b, KindDate)
		if errA == nil && errB == nil {
			return cmpInt(da.I, db.I), true
		}
	}
	return 0, false
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// HashKey returns a string key identifying the value for hash joins and
// grouping. Numeric kinds normalize so 1 and 1.0 collide.
func (v Value) HashKey() string { return string(v.AppendHashKey(nil)) }

// AppendHashKey appends HashKey's bytes to buf, so composite keys can
// be built in a reused buffer and probed as m[string(buf)] without
// allocating.
func (v Value) AppendHashKey(buf []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(buf, 0, 'N')
	case KindInt, KindBool:
		return strconv.AppendInt(append(buf, 1), v.I, 10)
	case KindFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.AppendInt(append(buf, 1), int64(v.F), 10)
		}
		return strconv.AppendFloat(append(buf, 2), v.F, 'b', -1, 64)
	case KindString:
		return append(append(buf, 3), strings.TrimRight(v.S, " ")...)
	case KindDate:
		return strconv.AppendInt(append(buf, 4), v.I, 10)
	}
	return append(buf, 5)
}
