package check

import (
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
)

// checkRecursion reports whether the routine being defined can reach
// itself through the stored call graph (directly or mutually): whether
// its own name is in the dependency set of its body's effect summary.
// Recursion is legal at run time for write-free routines under
// parallel evaluation, but it defeats the purity cache and usually
// indicates a mistake in SQL/PSM, so it is a warning.
func (c *checker) checkRecursion(name string, body sqlast.Stmt, pos sqlscan.Pos) {
	if Summarize(c.cat, nil, body).Routines[fold(name)] {
		c.add(CodeRecursion, Warning, pos,
			"routine %s is directly or mutually recursive", name)
	}
}
