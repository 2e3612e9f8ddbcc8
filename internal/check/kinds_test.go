package check_test

import (
	"fmt"
	"strings"
	"testing"

	"taupsm/internal/check"
	"taupsm/internal/engine"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/types"
)

// The checker's kinds are the engine's, read from the one copy of each
// value rule in internal/types:
//   - for every library function, on arguments of the kinds it is meant
//     for, the kind the checker infers for the call is the kind of the
//     value the engine returns (or the checker claims none);
//   - for every pair of kinds, an assignment is an error (TAU043) exactly
//     when types.Convert refuses every value of the one kind for the
//     other;
//   - a name the parser reads as a call without parentheses is exactly a
//     Clock row.
func TestCheckerKindsAreTheEngines(t *testing.T) {
	text := "'ab', 12, 2.5, DATE '2010-03-05'"
	samples := map[string][]string{
		"CURRENT_DATE":   {""},
		"FIRST_INSTANCE": {"DATE '2010-01-01', DATE '2010-06-01'", "DATE '2010-06-01', DATE '2010-01-01'"},
		"LAST_INSTANCE":  {"DATE '2010-01-01', DATE '2010-06-01'", "DATE '2010-06-01', DATE '2010-01-01'"},
		"UPPER":          strings.Split(text, ", "),
		"LOWER":          strings.Split(text, ", "),
		"LENGTH":         strings.Split(text, ", "),
		"TRIM":           strings.Split(text, ", "),
		"SUBSTR":         {"'hello', 2", "'hello', 2, 3", "12345, 2"},
		"ABS":            {"'-5'", "-5", "-2.5", "TRUE", "DATE '2010-03-05'"},
		"MOD":            {"7, 3", "7.5, 2", "'7', 2"},
		"COALESCE":       {"NULL, 'x'", "1, 'x'"},
		"NULLIF":         {"1, 2", "'a', 'b'", "2.5, 1", "DATE '2010-03-05', 1"},
		"YEAR":           {"DATE '2010-03-05'", "'2010-03-05'", "14000"},
		"MONTH":          {"DATE '2010-03-05'", "'2010-03-05'", "14000"},
		"DAY":            {"DATE '2010-03-05'", "'2010-03-05'", "14000"},
		"DATE":           {"DATE '2010-03-05'", "'2010-03-05'", "14000"},
	}
	sampled := map[*types.Builtin]bool{}
	db := engine.New()
	for name, args := range samples {
		row := types.Builtins[name]
		if row == nil {
			t.Fatalf("%s has samples but no row", name)
		}
		sampled[row] = true
		for _, a := range args {
			call := name + "(" + a + ")"
			if row.Clock {
				call = name
			}
			e, err := sqlparser.ParseExpr(call)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.ExecScript("SELECT " + call)
			if err != nil {
				t.Fatalf("%s: %v", call, err)
			}
			got := res.Rows[0][0].Kind
			if k := check.InferKind(e); k != types.KindNull && got != types.KindNull && k != got {
				t.Errorf("%s: the checker infers %s, the engine returns %s", call, k, got)
			}
		}
	}
	for name, row := range types.Builtins {
		if !sampled[row] {
			t.Errorf("%s has no samples", name)
		}
		e, err := sqlparser.ParseExpr(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, call := e.(*sqlast.FuncCall); call != row.Clock {
			t.Errorf("%s parses as %T without parentheses; Clock is %v", name, e, row.Clock)
		}
	}

	values := map[types.Kind][]types.Value{
		types.KindInt:    {types.NewInt(0), types.NewInt(42), types.NewInt(-1)},
		types.KindFloat:  {types.NewFloat(0), types.NewFloat(2.7)},
		types.KindString: {types.NewString(""), types.NewString("abc"), types.NewString("2010-03-05")},
		types.KindBool:   {types.NewBool(false), types.NewBool(true)},
		types.KindDate:   {types.NewDate(0), types.NewDate(types.Forever)},
	}
	typeOf := map[types.Kind]string{types.KindInt: "INTEGER", types.KindFloat: "FLOAT",
		types.KindString: "VARCHAR(20)", types.KindBool: "BOOLEAN", types.KindDate: "DATE"}
	for val, vs := range values {
		for tgt := range values {
			never := true
			for _, v := range vs {
				if _, err := types.Convert(v, tgt); err == nil {
					never = false
				}
			}
			stmt, err := sqlparser.ParseStatement(fmt.Sprintf(`CREATE FUNCTION f () RETURNS INTEGER
BEGIN DECLARE y %s; DECLARE x %s; SET x = y; RETURN 0; END`, typeOf[val], typeOf[tgt]))
			if err != nil {
				t.Fatal(err)
			}
			isErr := false
			for _, d := range check.Check(check.NewScriptCatalog(nil), stmt) {
				if d.Code == check.CodeAssignMismatch && d.Severity == check.Error {
					isErr = true
				}
			}
			if isErr != never {
				t.Errorf("%s into %s: the checker errs %v, types never converts %v", val, tgt, isErr, never)
			}
		}
	}
}

// A library call with a count of arguments its function does not take
// reads the same in the checker's TAU009 and in the engine's error, for
// a function of one arity and for SUBSTR's two: both are
// types.Builtin.Arity.
func TestArityMessagesAreTheEngines(t *testing.T) {
	db := engine.New()
	for _, call := range []string{
		`UPPER()`, `upper('a', 'b')`, `MOD(7)`, `Mod(7, 2, 1)`,
		`SUBSTR('abc')`, `substr('abc', 1, 2, 3)`, `SUBSTRING('abc')`,
	} {
		stmt, err := sqlparser.ParseStatement("SELECT " + call)
		if err != nil {
			t.Fatal(err)
		}
		var msg string
		for _, d := range check.Check(check.NewScriptCatalog(nil), stmt) {
			if d.Code == check.CodeBadArity {
				msg = d.Message
			}
		}
		_, err = db.ExecScript("SELECT " + call)
		if msg == "" || err == nil || err.Error() != msg {
			t.Errorf("%s: the checker says %q, the engine %v", call, msg, err)
		}
	}
}
