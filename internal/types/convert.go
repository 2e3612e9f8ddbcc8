package types

import (
	"fmt"
	"strings"
)

// Convert returns v as a value of kind k. It is the one conversion: CAST
// applies it (and then its CHAR / VARCHAR length), and so does every
// assignment — a column, a variable, a parameter, a function's result, a
// temporal context's bound. NULL stays NULL, a value of kind k stays as it
// is, and k KindNull, a column of no declared type, keeps any value. A
// number takes the value's number (0 for a string that spells none), a
// string its text, a BOOLEAN whether it is TRUE; a DATE takes a DATE, an
// INTEGER as its day number or a string of the form YYYY-MM-DD, and
// nothing else.
func Convert(v Value, k Kind) (Value, error) {
	if v.Kind == KindNull || v.Kind == k || k == KindNull {
		return v, nil
	}
	switch k {
	case KindInt:
		return NewInt(v.Int()), nil
	case KindFloat:
		return NewFloat(v.Float()), nil
	case KindString:
		return NewString(v.Text()), nil
	case KindBool:
		return NewBool(TriboolFromValue(v) == True), nil
	case KindDate:
		switch v.Kind {
		case KindInt:
			return NewDate(v.I), nil
		case KindString:
			d, err := ParseDate(strings.TrimSpace(v.S))
			if err != nil {
				return Null, err
			}
			return NewDate(d), nil
		}
	}
	return Null, fmt.Errorf("cannot cast %s to %s", v.Kind, k)
}

// Sample is a value of kind k for asking the value rules about kinds
// alone: nonzero, so that a division is refused only for its kinds, a
// string that spells a DATE, so that a conversion is refused only where
// no string could pass, and a TABLE past the five scalar kinds.
func Sample(k Kind) Value {
	switch k {
	case KindInt:
		return NewInt(1)
	case KindFloat:
		return NewFloat(1)
	case KindString:
		return NewString("1970-01-02")
	case KindBool:
		return NewBool(true)
	case KindDate:
		return NewDate(1)
	}
	return NewTable(nil)
}
