//go:build race

package core

// raceEnabled reports that the race detector is active: allocation
// counts are not measured (its instrumentation allocates).
const raceEnabled = true
