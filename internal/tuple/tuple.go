// Package tuple provides fixed-arity sequences of values — the rows of
// database relations and the variable bindings flowing through the
// constraint evaluator.
package tuple

import (
	"strings"

	"rtic/internal/value"
)

// Tuple is an immutable-by-convention ordered sequence of values.
// Code that stores tuples copies them; callers may keep their slices.
type Tuple []value.Value

// Of builds a tuple from its arguments.
func Of(vs ...value.Value) Tuple { return Tuple(vs) }

// Clone returns an independent copy of t.
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically; shorter tuples that are a
// prefix of longer ones order first.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Key returns a collision-free string encoding of t, suitable as a map
// key. Component keys are length-prefixed so that concatenations cannot
// collide across different arities or splits.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		k := v.Key()
		// Length prefix keeps ("ab","c") distinct from ("a","bc").
		b.WriteString(itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String()
}

// AppendKeyTo appends the Key() encoding of t to dst and returns the
// extended slice. It produces exactly the bytes of Key(), so a key built
// in a reusable buffer can probe maps keyed by Key() strings without
// allocating.
func (t Tuple) AppendKeyTo(dst []byte) []byte {
	for _, v := range t {
		dst = AppendValueKey(dst, v)
	}
	return dst
}

// AppendValueKey appends one component's length-prefixed key encoding
// ("<len>:<value key>") to dst — the per-column building block plan
// executors use when a probe key is assembled from scattered slots
// rather than a materialized tuple.
func AppendValueKey(dst []byte, v value.Value) []byte {
	dst = appendUint(dst, v.KeyLen())
	dst = append(dst, ':')
	return v.AppendKey(dst)
}

// appendUint appends the decimal rendering of a non-negative int,
// byte-for-byte identical to itoa, without allocating.
func appendUint(dst []byte, n int) []byte {
	if n == 0 {
		return append(dst, '0')
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return append(dst, buf[i:]...)
}

// String renders the tuple as "(v1, v2, …)".
func (t Tuple) String() string { return string(t.AppendTo(nil)) }

// AppendTo appends the String() rendering of t to dst and returns the
// extended slice.
//
//rtic:noalloc
func (t Tuple) AppendTo(dst []byte) []byte {
	dst = append(dst, '(')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = v.AppendTo(dst)
	}
	return append(dst, ')')
}

// Project returns the tuple restricted to the given positions, in order.
func (t Tuple) Project(positions []int) Tuple {
	p := make(Tuple, len(positions))
	for i, pos := range positions {
		p[i] = t[pos]
	}
	return p
}

// Size estimates the in-memory footprint of t in bytes.
func (t Tuple) Size() int {
	n := 24 // slice header
	for _, v := range t {
		n += v.Size()
	}
	return n
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Ints builds a tuple of integer values; a convenience for tests and
// workload generators.
func Ints(xs ...int64) Tuple {
	t := make(Tuple, len(xs))
	for i, x := range xs {
		t[i] = value.Int(x)
	}
	return t
}

// Strs builds a tuple of string values.
func Strs(xs ...string) Tuple {
	t := make(Tuple, len(xs))
	for i, x := range xs {
		t[i] = value.Str(x)
	}
	return t
}
