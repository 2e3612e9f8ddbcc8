package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"taupsm"
	"taupsm/internal/sqlparser"
)

// vetFinding is one static-analyzer finding in machine-readable form,
// emitted as one JSON object per line under -json.
type vetFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Severity string `json:"severity"`
	Code     string `json:"code"`
	Message  string `json:"message"`
	Hint     string `json:"hint,omitempty"`
}

// text renders the finding in the classic text form,
// file:line:col: severity CODE: message.
func (f vetFinding) text() string {
	return fmt.Sprintf("%s:%d:%d: %s %s: %s", f.File, f.Line, f.Col, f.Severity, f.Code, f.Message)
}

// runVet statically checks each file (or stdin for "-") without
// executing anything: every statement is analyzed against a shadow
// catalog that follows the file's DDL (DB.Lint over an empty database),
// and findings print as file:line:col: severity CODE: message, or as
// JSON Lines with -json.
// The exit code is 1 when any file fails to read or parse, any
// diagnostic has error severity, or -Werror is set and any diagnostic
// has warning severity; 0 otherwise.
func runVet(args []string, w io.Writer) int {
	jsonOut, werror := false, false
	for len(args) > 0 {
		switch args[0] {
		case "-json", "--json":
			jsonOut = true
		case "-Werror", "--Werror":
			werror = true
		default:
			goto parsed
		}
		args = args[1:]
	}
parsed:
	if len(args) == 0 {
		fmt.Fprintln(w, "usage: taupsm vet [-json] [-Werror] <file.sql ... | ->")
		return 2
	}
	enc := json.NewEncoder(w)
	failed := false
	for _, path := range args {
		var src []byte
		var err error
		if path == "-" {
			src, err = io.ReadAll(os.Stdin)
			path = "<stdin>"
		} else {
			src, err = os.ReadFile(path)
		}
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", path, err)
			failed = true
			continue
		}
		findings, bad := vetCollect(path, string(src))
		if bad {
			failed = true
		}
		for _, f := range findings {
			if werror && f.Severity == "warning" {
				failed = true
			}
			if jsonOut {
				enc.Encode(f)
			} else {
				fmt.Fprintln(w, f.text())
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// vetCollect checks one script and returns its findings; failed
// reports a parse error or any error-severity diagnostic. A parse
// error becomes a single finding with code "parse".
func vetCollect(path, src string) (findings []vetFinding, failed bool) {
	diags, err := taupsm.Open().Lint(src)
	if err != nil {
		var perr *sqlparser.Error
		if errors.As(err, &perr) {
			return []vetFinding{{File: path, Line: perr.Pos.Line, Col: perr.Pos.Col,
				Severity: "error", Code: "parse", Message: perr.Msg}}, true
		}
		return []vetFinding{{File: path, Severity: "error", Code: "parse", Message: err.Error()}}, true
	}
	for _, d := range diags {
		findings = append(findings, vetFinding{File: path, Line: d.Line, Col: d.Col,
			Severity: d.Severity, Code: d.Code, Message: d.Message, Hint: d.Hint})
		if d.Severity == "error" {
			failed = true
		}
	}
	return findings, failed
}
