package check

import (
	"taupsm/internal/core"
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
)

// ChunkOrderSafe reports that no top-level query block orders or
// limits across periods, so chunked evaluation keeps result order. It
// is the statement-shape half of the stratum's parallel gate; the
// effect half is core.Summary.SharedWriteFree.
func ChunkOrderSafe(q sqlast.QueryExpr) bool {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		return len(x.OrderBy) == 0 && x.Limit == nil
	case *sqlast.SetOpExpr:
		if len(x.OrderBy) > 0 {
			return false
		}
		return ChunkOrderSafe(x.L) && ChunkOrderSafe(x.R)
	case *sqlast.ValuesExpr:
		return true
	}
	return false
}

// FromStorage and Summarize are the forms the benchmark's per-layer
// trace (bench/trace.go) times core.Summarize in: the live catalog is
// an analyzer catalog as it is.
func FromStorage(c *storage.Catalog) Catalog { return c }

// Summarize is core.Summarize over an analyzer catalog.
func Summarize(cat Catalog, locals map[string]sqlast.Stmt, n sqlast.Node) *core.Summary {
	return core.Summarize(cat, locals, n)
}
