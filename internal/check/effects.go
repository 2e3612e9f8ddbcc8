package check

import (
	"taupsm/internal/core"
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
)

// FromStorage and Summarize are the forms the benchmark's per-layer
// trace (bench/trace.go) times core.Summarize in: the live catalog is
// an analyzer catalog as it is.
func FromStorage(c *storage.Catalog) Catalog { return c }

// Summarize is core.Summarize over an analyzer catalog.
func Summarize(cat Catalog, locals map[string]sqlast.Stmt, n sqlast.Node) *core.Summary {
	return core.Summarize(cat, locals, n)
}
