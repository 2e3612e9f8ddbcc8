package check

import (
	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// CompareSummaries checks Summarize and SummarizeRoutine against the
// fixpoint they replaced, for the external tests that load the
// benchmark corpus and the enginetest scenarios (both import packages
// that import this one).
var CompareSummaries = compareSummaries

// InferKind is the kind the checker infers for an expression outside any
// table, over an empty catalog.
func InferKind(e sqlast.Expr) types.Kind {
	return (&checker{cat: NewScriptCatalog(nil)}).inferKind(e, &scope{})
}
