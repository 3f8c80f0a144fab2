// Package value defines the scalar constants that populate database tuples
// and appear in constraint formulas: 64-bit integers and strings.
//
// Values are small immutable records with a total order (integers sort
// before strings) and a collision-free string encoding used as a map key
// throughout the engine.
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the dynamic type of a Value.
type Kind uint8

const (
	// KindInt is a signed 64-bit integer.
	KindInt Kind = iota
	// KindString is an uninterpreted string.
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable scalar: either an integer or a string.
// The zero Value is the integer 0.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the integer payload; it must only be called when
// v.Kind() == KindInt.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("value: AsInt on " + v.kind.String()) //rtic:allocok cold path: a kind mismatch is a caller bug
	}
	return v.i
}

// AsString returns the string payload; it must only be called when
// v.Kind() == KindString.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("value: AsString on " + v.kind.String()) //rtic:allocok cold path: a kind mismatch is a caller bug
	}
	return v.s
}

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(w Value) bool {
	return v.kind == w.kind && v.i == w.i && v.s == w.s
}

// Compare orders values totally: all integers precede all strings;
// integers order numerically, strings lexicographically.
// It returns -1, 0 or +1.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
		return 0
	default:
		return strings.Compare(v.s, w.s)
	}
}

// Less reports whether v orders strictly before w.
func (v Value) Less(w Value) bool { return v.Compare(w) < 0 }

// Key returns a collision-free encoding of v usable as a map key.
// Integer keys are "i<decimal>", string keys are "s<payload>"; the
// distinct prefixes keep Int(5) and Str("5") apart.
func (v Value) Key() string {
	if v.kind == KindInt {
		return "i" + strconv.FormatInt(v.i, 10)
	}
	return "s" + v.s
}

// AppendKey appends the Key() encoding of v to dst and returns the
// extended slice — the allocation-free form the query-plan executor uses
// to build probe keys in reusable buffers.
func (v Value) AppendKey(dst []byte) []byte {
	if v.kind == KindInt {
		dst = append(dst, 'i')
		return strconv.AppendInt(dst, v.i, 10)
	}
	dst = append(dst, 's')
	return append(dst, v.s...)
}

// KeyLen reports len(v.Key()) without building the string.
func (v Value) KeyLen() int {
	if v.kind == KindInt {
		n := 1 // "i"
		u := v.i
		if u < 0 {
			n++
			if u == -9223372036854775808 {
				return n + 19
			}
			u = -u
		}
		for {
			n++
			u /= 10
			if u == 0 {
				return n
			}
		}
	}
	return 1 + len(v.s)
}

// String renders the value as it appears in the constraint language:
// integers bare, strings single-quoted with quote doubling.
func (v Value) String() string { return string(v.AppendTo(nil)) }

// AppendTo appends the String() rendering of v to dst and returns the
// extended slice.
//
//rtic:noalloc
func (v Value) AppendTo(dst []byte) []byte {
	if v.kind == KindInt {
		return strconv.AppendInt(dst, v.i, 10)
	}
	dst = append(dst, '\'')
	for i := 0; i < len(v.s); i++ {
		if v.s[i] == '\'' {
			dst = append(dst, '\'')
		}
		dst = append(dst, v.s[i])
	}
	return append(dst, '\'')
}

// Parse reads a constraint-language literal: a decimal integer
// (optionally signed) or a single-quoted string with quote doubling.
func Parse(src string) (Value, error) {
	if src == "" {
		return Value{}, fmt.Errorf("value: empty literal")
	}
	if src[0] == '\'' {
		if len(src) < 2 || src[len(src)-1] != '\'' {
			return Value{}, fmt.Errorf("value: unterminated string literal %q", src)
		}
		body := src[1 : len(src)-1]
		var b strings.Builder
		for i := 0; i < len(body); i++ {
			if body[i] == '\'' {
				if i+1 >= len(body) || body[i+1] != '\'' {
					return Value{}, fmt.Errorf("value: stray quote in string literal %q", src)
				}
				i++
			}
			b.WriteByte(body[i])
		}
		return Str(b.String()), nil
	}
	i, err := strconv.ParseInt(src, 10, 64)
	if err != nil {
		return Value{}, fmt.Errorf("value: bad literal %q: %w", src, err)
	}
	return Int(i), nil
}

// Size returns an estimate of the in-memory footprint of v in bytes,
// used by the space-accounting experiments.
func (v Value) Size() int {
	// kind byte + int64 + string header approximation + payload.
	return 1 + 8 + len(v.s)
}

// MarshalBinary encodes the value for gob/binary transport: a kind byte
// followed by the payload (big-endian int64 or raw string bytes).
func (v Value) MarshalBinary() ([]byte, error) {
	return v.AppendBinary(make([]byte, 0, v.BinaryLen())), nil
}

// AppendBinary appends the MarshalBinary encoding of v to dst and
// returns the extended slice — the form the WAL encodes records with,
// into a buffer it reuses.
//
//rtic:noalloc
func (v Value) AppendBinary(dst []byte) []byte {
	if v.kind == KindInt {
		u := uint64(v.i)
		return append(dst, byte(KindInt),
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	dst = append(dst, byte(KindString))
	return append(dst, v.s...)
}

// BinaryLen reports len of the MarshalBinary encoding of v without
// building it.
func (v Value) BinaryLen() int {
	if v.kind == KindInt {
		return 9
	}
	return 1 + len(v.s)
}

// UnmarshalBinary decodes a value produced by MarshalBinary.
func (v *Value) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("value: empty binary encoding")
	}
	switch Kind(data[0]) {
	case KindInt:
		if len(data) != 9 {
			return fmt.Errorf("value: bad int encoding length %d", len(data))
		}
		var u uint64
		for k := 0; k < 8; k++ {
			u = u<<8 | uint64(data[1+k])
		}
		*v = Int(int64(u))
		return nil
	case KindString:
		*v = Str(string(data[1:]))
		return nil
	default:
		return fmt.Errorf("value: unknown kind byte %d", data[0])
	}
}
