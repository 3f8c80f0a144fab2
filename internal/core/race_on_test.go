//go:build race

package core

// raceEnabled reports that the race detector is active: enumerating
// sweeps shorten their scripts, allocation-count tests are skipped (its
// instrumentation allocates).
const raceEnabled = true
