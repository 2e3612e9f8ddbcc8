// Package check is a compile-time semantic analyzer for Temporal
// SQL/PSM. It statically mirrors the conventional engine's name
// resolution, call semantics, and effect inference, asks the temporal
// stratum's translator (internal/core) what it would refuse, and
// reports findings as position-carrying diagnostics. The stratum consults it at CREATE
// FUNCTION/PROCEDURE time, EXPLAIN renders its findings, and the
// `taupsm vet` subcommand and REPL \lint run it over whole scripts.
package check

import (
	"fmt"
	"sort"

	"taupsm/internal/sqlscan"
)

// Severity classifies a diagnostic.
type Severity uint8

// Diagnostic severities. Errors describe statements the engine is
// guaranteed (or overwhelmingly likely) to reject at run time;
// warnings describe suspicious-but-executable constructs.
const (
	Warning Severity = iota
	Error
)

// String names the severity.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic codes. The TAU0xx block covers name/scope resolution and
// control flow, TAU00x errors mirror exact engine runtime errors;
// TAU02x/TAU03x cover temporal applicability.
const (
	// Name and scope resolution.
	CodeUndeclaredVar    = "TAU001" // variable or bare name not resolvable
	CodeUndeclaredCursor = "TAU002" // cursor not declared
	CodeUnknownLabel     = "TAU003" // LEAVE/ITERATE of an unknown or non-loop label
	CodeUnknownTable     = "TAU004" // table or view does not exist
	CodeUnknownColumn    = "TAU005" // qualified column not found
	// Call graph.
	CodeUnknownRoutine = "TAU006" // callee is neither stored routine nor builtin
	CodeKindMismatch   = "TAU007" // procedure invoked as function or vice versa
	CodeRecursion      = "TAU008" // routine is directly or mutually recursive
	CodeBadArity       = "TAU009" // argument/variable count mismatch
	// Dead code.
	CodeDeadStore    = "TAU010" // variable or cursor declared/assigned but never read
	CodeUnreachable  = "TAU011" // statement cannot be reached
	CodeDuplicate    = "TAU012" // duplicate declaration in one block
	CodeMissingRet   = "TAU013" // function may end without RETURN
	CodeUseBeforeDec = "TAU014" // name used lexically before its declaration
	// Temporal applicability.
	CodeNoTemporalTable = "TAU020" // modifier reaches no temporal table
	CodeMixedDimensions = "TAU021" // one sequenced statement reaches both dimensions
	CodeTimeColumnWrite = "TAU022" // explicit write to begin_time/end_time
	CodeModifierInBody  = "TAU023" // temporal modifier inside a routine body
	CodePerstFallback   = "TAU030" // per-statement slicing will not apply
	CodeManualTransTime = "TAU031" // manual DML on a transaction-time table
	CodeRefused         = "TAU032" // statement refused by the translator
	// Typed IR (typecheck.go). Severities mirror the engine's runtime
	// coercions: constructs the engine rejects deterministically are
	// errors, constructs it silently coerces (or that yield a constant
	// NULL/UNKNOWN) are warnings.
	CodeBadArith       = "TAU040" // arithmetic the engine rejects (DATE+DATE, string arithmetic)
	CodeIncomparable   = "TAU041" // comparison of incomparable types (always UNKNOWN)
	CodeNonBoolCond    = "TAU042" // condition of a type that can never be TRUE
	CodeAssignMismatch = "TAU043" // SET/DEFAULT value of incompatible type
	CodeReturnMismatch = "TAU044" // RETURN value incompatible with declared return type
	CodeArgMismatch    = "TAU045" // argument incompatible with parameter type
	CodeInsertArity    = "TAU046" // INSERT arity does not match target columns
	CodeInsertMismatch = "TAU047" // INSERT/UPDATE value incompatible with column type
	CodeDupTarget      = "TAU048" // INSERT/UPDATE writes a column twice
	// Constant folding (fold.go).
	CodeConstCond    = "TAU050" // condition folds to a constant
	CodeFoldedDead   = "TAU051" // statement unreachable under constant folding
	CodeEmptyPeriod  = "TAU052" // statically-empty applicability period
	CodeConstDivZero = "TAU053" // constant division by zero
)

// Diagnostic is one analyzer finding anchored to a source position.
type Diagnostic struct {
	Code     string
	Severity Severity
	Pos      sqlscan.Pos
	Message  string
	Hint     string // optional fix suggestion
}

// String renders the diagnostic as "line:col: severity CODE: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s %s: %s", d.Pos.Line, d.Pos.Col, d.Severity, d.Code, d.Message)
}

// Errors filters diags down to error severity.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// sortDiags orders diagnostics by (line, col, code) for stable output:
// golden tests and vet output must not depend on map-iteration or
// analysis-pass order.
func sortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
}
