package core

// Helpers of this package's tests that its external tests (package
// core_test, which may import what imports core) share.
var (
	Canon     = canon
	SameCanon = sameCanon
	MustStep  = mustStep
)
