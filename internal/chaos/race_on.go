//go:build race

package chaos

// raceShorter shortens the crash sweep's trace under the race detector,
// which looks for something else and runs several times slower.
const raceShorter = 1
