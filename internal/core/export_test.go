package core

// DimAny is the dimension of a current statement's analysis.
const DimAny = dimAny

// ReachDiff compares the translator's reach with the reference kept in
// reach_reference_test.go, for the external tests that load the
// benchmark corpus and the enginetest scenarios (both import packages
// that import this one).
var ReachDiff = reachDiff

// UpdateGolden is the -update flag, for the external tests' golden files.
var UpdateGolden = updateGolden
