package core

import (
	"fmt"

	"taupsm/internal/sqlast"
)

// Bitemporal tables carry both periods: the valid-time pair keeps the
// standard begin_time/end_time names (so every name-based valid-time
// transform applies unchanged) and the transaction-time pair is
// appended as tt_begin_time/tt_end_time. A sequenced statement slices
// along its own dimension; the orthogonal dimension is a *context*:
// tables carrying it are filtered to the context period (the current
// instant by default, or an explicit `AND <dim> (...)` clause), not
// sliced. This turns the old mixed-dimension rejection into a defined
// semantics: "what did we believe on X about Y".

// carriesDim reports whether the temporal table name carries dimension
// d: bitemporal tables carry both, single-dimension tables only their
// own. dimAny matches every temporal table.
func (tr *Translator) carriesDim(name string, d sqlast.TemporalDimension) bool {
	if d == dimAny || tr.Info.IsBitemporalTable(name) {
		return true
	}
	if d == sqlast.DimTransaction {
		return tr.Info.IsTransactionTable(name)
	}
	return !tr.Info.IsTransactionTable(name)
}

// SlicePeriodCols names the period columns of table along dimension d.
// Only the transaction-time pair of a bitemporal table deviates from
// the standard names (transaction-time-only tables reuse
// begin_time/end_time). The stratum's native constant-period
// computation reads the same pair the generated SQL would.
func (tr *Translator) SlicePeriodCols(table string, d sqlast.TemporalDimension) (string, string) {
	if d == sqlast.DimTransaction && tr.Info.IsBitemporalTable(table) {
		return "tt_begin_time", "tt_end_time"
	}
	return "begin_time", "end_time"
}

// addContextFilters restricts, in every SELECT under stmt, every
// temporal table carrying the dimension orthogonal to dim down to the
// context [ctxBegin, ctxEnd) (the current instant when ctxBegin is
// nil). After this filter a bitemporal table exposes one consistent
// belief and a table carrying only the orthogonal dimension is
// constant with respect to the sliced one.
func (tr *Translator) addContextFilters(stmt sqlast.Node, dim sqlast.TemporalDimension, ctxBegin, ctxEnd sqlast.Expr) {
	cd := dim.Other()
	tr.eachTemporalEntry(stmt, func(fe fromEntry) {
		if tr.carriesDim(fe.Name, cd) {
			bcol, ecol := tr.SlicePeriodCols(fe.Name, cd)
			pred := instantIn(fe.Alias, bcol, ecol, currentDate())
			if ctxBegin != nil {
				pred = periodOverlap(fe.Alias, bcol, ecol, ctxBegin, ctxEnd)
			}
			fe.restrict(pred)
		}
	})
}

// checkExplicitContext rejects an explicit secondary-dimension context
// on statements whose reachable routines touch tables carrying the
// context dimension: routine clones are named deterministically and
// cannot embed per-statement context literals, so they always evaluate
// against the default (current) context.
func (tr *Translator) checkExplicitContext(a *analysis, dim sqlast.TemporalDimension, ctxBegin sqlast.Expr) error {
	if ctxBegin == nil {
		return nil
	}
	cd := dim.Other()
	for _, r := range a.routines {
		for _, read := range a.routine(r).b.reads {
			if t := read.name; tr.Info.IsTemporalTable(t) && tr.carriesDim(t, cd) {
				return fmt.Errorf("explicit %s context cannot reach stored routine %s over table %s; routines evaluate against the current context",
					cd.Keyword(), r, t)
			}
		}
	}
	return nil
}
