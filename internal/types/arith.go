package types

import "fmt"

// Tribool is SQL three-valued logic: True, False, or Unknown.
type Tribool uint8

// The three truth values of SQL predicates.
const (
	False Tribool = iota
	True
	Unknown
)

// TriboolOf lifts a Go bool into a Tribool.
func TriboolOf(b bool) Tribool {
	if b {
		return True
	}
	return False
}

// And is three-valued conjunction.
func (t Tribool) And(o Tribool) Tribool {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or is three-valued disjunction.
func (t Tribool) Or(o Tribool) Tribool {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not is three-valued negation.
func (t Tribool) Not() Tribool {
	switch t {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

// Value converts the tribool to a SQL value (Unknown becomes NULL).
func (t Tribool) Value() Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	}
	return Null
}

// TriboolFromValue interprets a SQL value as a predicate result.
func TriboolFromValue(v Value) Tribool {
	if v.IsNull() {
		return Unknown
	}
	if v.Bool() || (v.Kind == KindInt && v.I != 0) {
		return True
	}
	return False
}

// Op is a binary operator decoded once: the engine compiles an
// expression's operator text to a code when it builds a plan, so no
// evaluation switches on a string. OpNone is any text that names no
// comparison or arithmetic operator.
type Op uint8

// The comparison and arithmetic operators, in the order of opText.
const (
	OpNone Op = iota
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpConcat
)

var opText = [...]string{"", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "||"}

// ParseOp decodes an operator's SQL spelling.
func ParseOp(s string) Op {
	for op := OpEq; int(op) < len(opText); op++ {
		if opText[op] == s {
			return op
		}
	}
	return OpNone
}

// IsComparison reports whether op is one of = <> < <= > >=.
func (op Op) IsComparison() bool { return OpEq <= op && op <= OpGe }

// Arith applies a SQL arithmetic operator (+, -, *, /, ||) to two values.
// NULL operands yield NULL; DATE +/- INTEGER shifts by days (DB2-style
// date arithmetic at DATE granularity); DATE - DATE yields days.
func (op Op) Arith(a, b Value) (Value, error) { return arith(op, opText[op], a, b) }

// Arith is Op.Arith for an operator still spelled as text.
func Arith(op string, a, b Value) (Value, error) { return arith(ParseOp(op), op, a, b) }

// arith applies op; text is its spelling, for error messages.
func arith(op Op, text string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.Kind == KindDate || b.Kind == KindDate {
		return dateArith(op, text, a, b)
	}
	if a.Kind == KindString || b.Kind == KindString {
		if op == OpConcat {
			return NewString(a.Text() + b.Text()), nil
		}
		return Null, fmt.Errorf("cannot apply %s to %s and %s", text, a.Kind, b.Kind)
	}
	if op == OpConcat {
		return NewString(a.Text() + b.Text()), nil
	}
	if a.Kind == KindFloat || b.Kind == KindFloat {
		af, bf := a.Float(), b.Float()
		switch op {
		case OpAdd:
			return NewFloat(af + bf), nil
		case OpSub:
			return NewFloat(af - bf), nil
		case OpMul:
			return NewFloat(af * bf), nil
		case OpDiv:
			if bf == 0 {
				return Null, fmt.Errorf("division by zero")
			}
			return NewFloat(af / bf), nil
		}
		return Null, fmt.Errorf("unknown arithmetic operator %q", text)
	}
	ai, bi := a.Int(), b.Int()
	switch op {
	case OpAdd:
		return NewInt(ai + bi), nil
	case OpSub:
		return NewInt(ai - bi), nil
	case OpMul:
		return NewInt(ai * bi), nil
	case OpDiv:
		if bi == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		return NewInt(ai / bi), nil
	}
	return Null, fmt.Errorf("unknown arithmetic operator %q", text)
}

func dateArith(op Op, text string, a, b Value) (Value, error) {
	switch {
	case a.Kind == KindDate && b.Kind == KindDate:
		if op == OpSub {
			return NewInt(a.I - b.I), nil
		}
		return Null, fmt.Errorf("cannot apply %s to two DATEs", text)
	case a.Kind == KindDate:
		switch op {
		case OpAdd:
			return NewDate(a.I + b.Int()), nil
		case OpSub:
			return NewDate(a.I - b.Int()), nil
		}
	case b.Kind == KindDate:
		if op == OpAdd {
			return NewDate(b.I + a.Int()), nil
		}
	}
	return Null, fmt.Errorf("cannot apply %s to %s and %s", text, a.Kind, b.Kind)
}

// Compare evaluates a comparison operator with 3VL semantics, reading
// its operands in place: two INTEGERs or two DATEs — what the
// translators' point predicates and key equalities compare — are decided
// without copying either value; every other pairing is Compare's.
func (op Op) Compare(a, b *Value) Tribool {
	var c int
	if a.Kind == b.Kind && (a.Kind == KindInt || a.Kind == KindDate) {
		c = cmpInt(a.I, b.I)
	} else {
		var ok bool
		if c, ok = Compare(*a, *b); !ok {
			return Unknown
		}
	}
	switch op {
	case OpEq:
		return TriboolOf(c == 0)
	case OpNe:
		return TriboolOf(c != 0)
	case OpLt:
		return TriboolOf(c < 0)
	case OpLe:
		return TriboolOf(c <= 0)
	case OpGt:
		return TriboolOf(c > 0)
	case OpGe:
		return TriboolOf(c >= 0)
	}
	return Unknown
}

// CompareOp is Op.Compare for an operator still spelled as text ("!="
// is "<>" here, though the parser never lets it reach an expression).
func CompareOp(op string, a, b Value) Tribool {
	if op == "!=" {
		return OpNe.Compare(&a, &b)
	}
	return ParseOp(op).Compare(&a, &b)
}
