package check

import (
	"errors"
	"strings"

	"taupsm/internal/core"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
)

// Temporal applicability lint. The pass does not mirror the stratum, it
// asks it: the statement is translated (internal/core; a translation
// consults the catalog and changes nothing) and the result dropped. A
// refusal under the statement's own semantics — current, nonsequenced,
// MAX for sequenced, since MAX always applies — is the error diagnostic;
// ErrNotTransformable from the per-statement translation is TAU030. The
// text is the translator's and the position that of the node it refused,
// so a diagnostic and the error Exec returns cannot disagree.

// applicability lints one top-level statement by translating it.
func (c *checker) applicability(stmt sqlast.Stmt) {
	tr := core.NewTranslator(c.cat)
	pos := sqlast.PosOf(stmt)
	_, err := tr.Translate(stmt, core.StrategyMax)
	if err != nil {
		c.refused(Error, pos, err)
	}
	ts, ok := stmt.(*sqlast.TemporalStmt)
	if !ok {
		return
	}
	// A refusal that already is ErrNotTransformable (a sequenced view is
	// always rewritten per statement) has been reported, as the error.
	if ts.Mod == sqlast.ModSequenced && !errors.Is(err, core.ErrNotTransformable) {
		if _, perr := tr.Translate(stmt, core.StrategyPerStatement); errors.Is(perr, core.ErrNotTransformable) {
			c.refused(Warning, pos, perr)
		}
	}

	tables, sliced, mismatched := tr.Reach(ts.Body, ts.Dim)
	if ts.Mod == sqlast.ModSequenced && len(mismatched) > 0 && ts.Ctx == nil {
		c.addHint(CodeMixedDimensions, Warning, ts.Pos,
			"add AND "+ts.Dim.Other().Keyword()+" (...) to the modifier to pick a different context",
			"statement slices %s but also reaches %s-only table(s) %s; they are filtered to the current %s context",
			ts.Dim.Keyword(), ts.Dim.Other().Keyword(), strings.Join(mismatched, ", "),
			ts.Dim.Other().Keyword())
	}
	if len(sliced) == 0 && len(mismatched) == 0 && len(tables) > 0 {
		c.addHint(CodeNoTemporalTable, Warning, ts.Pos,
			"drop the modifier, or add temporal support with ALTER TABLE ... ADD "+ts.Dim.Keyword(),
			"%s modifier has no effect: no %s table is reachable from this statement",
			ts.Mod, ts.Dim.Keyword())
	}
}

// perstRoutine is the CREATE-time half of TAU030: a dry run of the
// per-statement transform of the routine being defined, which the
// checker's catalog overlays (withRoutine).
func (c *checker) perstRoutine(name string, pos sqlscan.Pos) {
	if err := core.NewTranslator(c.cat).PerStatementRoutine(name); errors.Is(err, core.ErrNotTransformable) {
		c.refused(Warning, pos, err)
	}
}

// refused reports a translator error as a diagnostic: its text, at the
// node the translator refused (at pos when it names none), under the
// code of the sentinel it wraps.
func (c *checker) refused(sev Severity, pos sqlscan.Pos, err error) {
	var r *core.Refusal
	if errors.As(err, &r) && r.Pos.Line > 0 {
		pos = r.Pos
	}
	code, hint := CodeRefused, ""
	switch {
	case errors.Is(err, core.ErrSequencedModifierInRoutine):
		code = CodeModifierInBody
	case errors.Is(err, core.ErrTransactionTimeManual):
		code = CodeManualTransTime
	case errors.Is(err, core.ErrNotTransformable):
		code = CodePerstFallback
		if sev == Warning {
			hint = "sequenced invocations under AUTO fall back to MAX, which always applies"
		}
	}
	c.addHint(code, sev, pos, hint, "%v", err)
}

// timeColumnWrites flags explicit UPDATE assignments to the period
// columns of a temporal table outside NONSEQUENCED statements, where
// the stratum maintains them (a TUC hazard: the write is either
// overwritten or corrupts period invariants).
func (c *checker) timeColumnWrites(body sqlast.Stmt, mod sqlast.TemporalModifier) {
	if mod == sqlast.ModNonsequenced {
		return
	}
	sqlast.Walk(body, func(n sqlast.Node) bool {
		up, ok := n.(*sqlast.UpdateStmt)
		if !ok || up.VarTarget || !c.cat.IsTemporalTable(up.Table) {
			return true
		}
		for _, set := range up.Sets {
			lc := fold(set.Column)
			if lc == "begin_time" || lc == "end_time" || lc == "tt_begin_time" || lc == "tt_end_time" {
				c.addHint(CodeTimeColumnWrite, Warning, set.Pos,
					"use a NONSEQUENCED VALIDTIME statement for explicit period surgery",
					"explicit write to system-maintained period column %s.%s", up.Table, set.Column)
			}
		}
		return true
	})
}
