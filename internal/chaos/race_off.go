//go:build !race

package chaos

const raceShorter = 0
