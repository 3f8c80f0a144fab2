//go:build !race

package formgen

const raceShorter = 0
