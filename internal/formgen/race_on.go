//go:build race

package formgen

// raceShorter shortens histories under the race detector, which looks
// for something else and runs several times slower.
const raceShorter = 1
