package check

// CompareSummaries checks Summarize and SummarizeRoutine against the
// fixpoint they replaced, for the external tests that load the
// benchmark corpus and the enginetest scenarios (both import packages
// that import this one).
var CompareSummaries = compareSummaries
