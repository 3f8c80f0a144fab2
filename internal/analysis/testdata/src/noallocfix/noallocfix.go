// Package noallocfix is the noalloc analyzer's fixture: annotated
// functions in clean, violating, suppressed, and exempted variants.
// Diagnostics expected by the harness are marked with want comments.
package noallocfix

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"time"
)

//rtic:noalloc
func cleanAdd(a, b int) int { return a + b }

//rtic:noalloc
func makesSlice(n int) []int {
	return make([]int, n) // want `noalloc: make allocates in noalloc function makesSlice`
}

//rtic:noalloc
func concat(a, b string) string {
	return a + b // want `noalloc: string concatenation allocates`
}

//rtic:noalloc
func callsAllocator() int {
	xs := helper() // want `noalloc: noalloc function callsAllocator calls .*helper, which may allocate: make allocates`
	return len(xs)
}

func helper() []int { return make([]int, 8) }

//rtic:noalloc
func suppressed(n int) []int {
	return make([]int, n) //rtic:allocok fixture: pretend warm-up allocation
}

// selfAppend exercises the pooled-buffer exemption: appending back into
// the same slice header is amortized, not steady-state allocation.
//
//rtic:noalloc
func selfAppend(xs []int, v int) []int {
	xs = append(xs, v)
	return xs
}

// mapProbe exercises the m[string(b)] conversion exemption.
//
//rtic:noalloc
func mapProbe(m map[string]int, k []byte) int { return m[string(k)] }

//rtic:noalloc
func boxes(v int) {
	blackhole(v) // want `noalloc: argument boxes int into an interface parameter`
}

func blackhole(x any) { _ = x }

// binaryAppends exercises the encoding/binary allowance: varints and
// fixed-width integers written into the caller's buffer.
//
//rtic:noalloc
func binaryAppends(buf []byte, v uint64) []byte {
	buf = binary.AppendUvarint(buf, v)
	binary.LittleEndian.PutUint32(buf[:4], uint32(v))
	return buf
}

// hashesAndClocks exercises the allowances a slab's probe and a phase
// timer rely on: maphash over the caller's bytes, bytes.Equal against a
// stored key, and reading the monotonic clock.
//
//rtic:noalloc
func hashesAndClocks(seed maphash.Seed, key, stored []byte, start time.Time) (uint64, bool, time.Duration) {
	end := time.Now()
	return maphash.Bytes(seed, key), bytes.Equal(key, stored), end.Sub(start) + time.Since(start)
}
