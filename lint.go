package taupsm

import (
	"context"
	"fmt"
	"strings"

	"taupsm/internal/check"
	"taupsm/internal/sqlast"
)

// Diagnostic is one static-analyzer finding, the public mirror of
// internal/check's diagnostic: a severity ("error" or "warning"), a
// stable TAUxxx code, a 1-based source position, and a message.
type Diagnostic struct {
	Code     string
	Severity string
	Line     int
	Col      int
	Message  string
	Hint     string
}

// String renders the diagnostic as "line:col: severity CODE: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s %s: %s", d.Line, d.Col, d.Severity, d.Code, d.Message)
}

func fromCheck(d check.Diagnostic) Diagnostic {
	return Diagnostic{
		Code:     d.Code,
		Severity: d.Severity.String(),
		Line:     d.Pos.Line,
		Col:      d.Pos.Col,
		Message:  d.Message,
		Hint:     d.Hint,
	}
}

func fromChecks(diags []check.Diagnostic) []Diagnostic {
	out := make([]Diagnostic, len(diags))
	for i, d := range diags {
		out[i] = fromCheck(d)
	}
	return out
}

// LintError reports that a statement was rejected by compile-time
// analysis; Diagnostics holds every finding (errors and warnings).
type LintError struct {
	Diagnostics []Diagnostic
}

func (e *LintError) Error() string {
	var errs []string
	for _, d := range e.Diagnostics {
		if d.Severity == "error" {
			errs = append(errs, d.String())
		}
	}
	return fmt.Sprintf("semantic check failed:\n  %s", strings.Join(errs, "\n  "))
}

// LintParsed statically analyzes one parsed statement against the live
// catalog without executing it.
func (db *DB) LintParsed(stmt sqlast.Stmt) []Diagnostic {
	db.sm.lintRuns.Inc()
	return fromChecks(check.Check(db.eng.Cat, stmt))
}

// Lint parses a script and statically analyzes each statement,
// applying DDL to a copy of the live catalog so later statements see
// the schema earlier statements would create.
func (db *DB) Lint(src string) ([]Diagnostic, error) {
	_, diags, err := db.lintScript(src)
	return diags, err
}

// lintScript is Lint, returning the parsed statements as well.
func (db *DB) lintScript(src string) ([]sqlast.Stmt, []Diagnostic, error) {
	stmts, err := db.parseScript(context.Background(), src)
	if err != nil {
		return nil, nil, err
	}
	sc := check.NewScriptCatalog(db.eng.Cat)
	var out []Diagnostic
	for _, s := range stmts {
		out = append(out, fromChecks(check.Check(sc, s))...)
		sc.Apply(s)
	}
	return stmts, out, nil
}

// checkCreate runs CREATE-time validation on a routine definition:
// error-severity diagnostics reject the statement, warnings are
// returned for attachment to the result.
func (db *DB) checkCreate(stmt sqlast.Stmt) ([]Diagnostic, error) {
	db.sm.lintRuns.Inc()
	diags := check.CheckRoutine(db.eng.Cat, stmt)
	if len(check.Errors(diags)) > 0 {
		return nil, &LintError{Diagnostics: fromChecks(diags)}
	}
	return fromChecks(diags), nil
}

// Prepared is a parsed, analyzer-validated script ready to execute.
type Prepared struct {
	db *DB
	// Stmts are the parsed statements, in order.
	stmts []sqlast.Stmt
	// Warnings are the warning-severity findings of preparation.
	Warnings []Diagnostic
}

// Prepare parses and statically checks a script without executing it.
// Any error-severity diagnostic fails preparation with a *LintError;
// warnings are collected on the returned Prepared.
func (db *DB) Prepare(src string) (*Prepared, error) {
	stmts, all, err := db.lintScript(src)
	if err != nil {
		return nil, err
	}
	for _, d := range all {
		if d.Severity == "error" {
			return nil, &LintError{Diagnostics: all}
		}
	}
	return &Prepared{db: db, stmts: stmts, Warnings: all}, nil
}

// Exec executes the prepared script, returning the result of the last
// statement.
func (p *Prepared) Exec() (*Result, error) {
	var last *Result
	for _, s := range p.stmts {
		res, err := p.db.ExecParsed(s)
		if err != nil {
			return nil, err
		}
		last = res
	}
	return last, nil
}

// LastFallbackNote says why PERST did not apply to the most recent
// statement for which Auto took MAX on that ground — the text lint
// reports as TAU030, the translator being the analyzer's oracle; ""
// when no fallback has occurred.
func (db *DB) LastFallbackNote() string {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.lastFallbackErr == nil {
		return ""
	}
	return fmt.Sprintf("last PERST fallback: %v", db.lastFallbackErr)
}
