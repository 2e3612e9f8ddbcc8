package core

import (
	"fmt"

	"taupsm/internal/sqlast"
)

// Temporal views. SQL/Temporal's statement modifiers apply to view
// definitions too (§III: the modifiers cover "a query, a modification,
// a view definition, a cursor, etc."). A *sequenced* view must be
// translated data-independently — the view is defined once but queried
// as the data changes — so constant-period slicing does not apply;
// instead the body gets the per-statement sequenced rewrite over the
// whole timeline, which references only base tables and ps_ routines
// and therefore stays valid as data evolves. A *nonsequenced* view
// passes through. Views over constructs the sequenced rewrite cannot
// express (temporal subqueries, temporal aggregation) are rejected.

// translateView handles CREATE VIEW with a temporal modifier on its
// body.
func (tr *Translator) translateView(v *sqlast.CreateViewStmt) (*Translation, error) {
	out := &Translation{}
	switch v.Mod {
	case sqlast.ModNonsequenced:
		nv := sqlast.CloneStmt(v).(*sqlast.CreateViewStmt)
		nv.Mod = sqlast.ModCurrent
		out.Main = nv
		return out, nil
	case sqlast.ModSequenced:
		a := tr.analyze(v, sqlast.DimValid)
		if err := tr.checkNoInnerModifiers(a); err != nil {
			return nil, err
		}
		out.TemporalTables = a.temporalTables
		for _, rn := range a.routines {
			if !a.temporalRoutine(rn) {
				continue
			}
			def, _, err := tr.psRoutine(a, rn)
			if err != nil {
				return nil, fmt.Errorf("sequenced view %s: %w", v.Name, err)
			}
			out.Routines = append(out.Routines, def)
		}
		nv := sqlast.CloneStmt(v).(*sqlast.CreateViewStmt)
		nv.Mod = sqlast.ModCurrent
		begin, end := defaultContext()
		counter := 0
		if err := tr.rewriteSequencedQuery(nv.Query, seqCtx{a: a, pBegin: begin, pEnd: end,
			lateralCounter: &counter}); err != nil {
			return nil, fmt.Errorf("sequenced view %s: %w", v.Name, err)
		}
		if len(nv.Cols) > 0 {
			nv.Cols = append([]string{"begin_time", "end_time"}, nv.Cols...)
		}
		out.Main = nv
		return out, nil
	}
	out.Main = sqlast.CloneStmt(v)
	return out, nil
}
