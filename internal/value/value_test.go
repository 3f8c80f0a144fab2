package value

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if KindInt.String() != "int" || KindString.String() != "string" {
		t.Fatalf("kind names wrong: %s %s", KindInt, KindString)
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Fatalf("unknown kind rendered %q", got)
	}
}

func TestZeroValueIsIntZero(t *testing.T) {
	var v Value
	if v.Kind() != KindInt || v.AsInt() != 0 {
		t.Fatalf("zero Value = %v, want Int(0)", v)
	}
}

func TestAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 {
		t.Fatal("Int payload lost")
	}
	if Str("x").AsString() != "x" {
		t.Fatal("Str payload lost")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("AsInt on string", func() { Str("a").AsInt() })
	mustPanic("AsString on int", func() { Int(1).AsString() })
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Int(5), Str("5"), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	vals := []Value{Int(-3), Int(0), Int(9), Str(""), Str("a"), Str("ab"), Str("b")}
	for i, a := range vals {
		for j, b := range vals {
			got := a.Compare(b)
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v,%v) = %d, want <0", a, b, got)
			case i == j && got != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", a, b, got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v,%v) = %d, want >0", a, b, got)
			}
		}
	}
}

func TestLess(t *testing.T) {
	if !Int(1).Less(Int(2)) || Int(2).Less(Int(1)) {
		t.Fatal("integer Less wrong")
	}
	if !Int(100).Less(Str("")) {
		t.Fatal("ints must sort before strings")
	}
}

func TestSortStability(t *testing.T) {
	vals := []Value{Str("z"), Int(4), Str("a"), Int(-1)}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Less(vals[j]) })
	want := []Value{Int(-1), Int(4), Str("a"), Str("z")}
	for i := range want {
		if !vals[i].Equal(want[i]) {
			t.Fatalf("sorted[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestKeyDisambiguates(t *testing.T) {
	if Int(5).Key() == Str("5").Key() {
		t.Fatal("Int(5) and Str(\"5\") collide")
	}
	if Int(-5).Key() != "i-5" {
		t.Fatalf("Int key = %q", Int(-5).Key())
	}
	if Str("ab").Key() != "sab" {
		t.Fatalf("Str key = %q", Str("ab").Key())
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Int(-7), "-7"},
		{Str("hi"), "'hi'"},
		{Str("o'clock"), "'o''clock'"},
		{Str(""), "''"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
		if got := string(c.v.AppendTo([]byte("x"))); got != "x"+c.want {
			t.Errorf("AppendTo(%#v) = %q, want %q", c.v, got, "x"+c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	vals := []Value{Int(0), Int(-12), Int(9999999), Str(""), Str("plain"), Str("it's"), Str("''")}
	for _, v := range vals {
		got, err := Parse(v.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", v.String(), err)
		}
		if !got.Equal(v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "'unterminated", "'stray'quote'", "12x", "abc"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(i int64, s string, pickStr bool) bool {
		var v Value
		if pickStr {
			v = Str(s)
		} else {
			v = Int(i)
		}
		got, err := Parse(v.String())
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareConsistentWithEqual(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return (va.Compare(vb) == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSize(t *testing.T) {
	if Int(1).Size() <= 0 {
		t.Fatal("int size must be positive")
	}
	if Str("abcd").Size() <= Str("").Size() {
		t.Fatal("string size must grow with payload")
	}
}

func TestMarshalBinaryRoundTrip(t *testing.T) {
	vals := []Value{Int(0), Int(-1), Int(1<<62 + 7), Int(-1 << 60), Str(""), Str("café"), Str("a'b")}
	for _, v := range vals {
		data, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got Value
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %v: %v", v, err)
		}
		if !got.Equal(v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

// TestAppendBinaryBytes pins the binary encoding journal records are
// made of: a kind byte, then the int64 big-endian or the string's bytes.
// AppendBinary writes exactly those bytes after what dst holds, and so
// does MarshalBinary; BinaryLen is their length, and an append into a
// buffer with room allocates nothing.
func TestAppendBinaryBytes(t *testing.T) {
	vals := []Value{Int(0), Int(-1), Int(1<<62 + 7), Int(-1 << 60), Int(math.MinInt64), Int(math.MaxInt64),
		Str(""), Str("café"), Str("a'b"), Str("i5"), Str("\x00nul")}
	for _, v := range vals {
		var want []byte
		if v.Kind() == KindInt {
			want = binary.BigEndian.AppendUint64([]byte{byte(KindInt)}, uint64(v.AsInt()))
		} else {
			want = append([]byte{byte(KindString)}, v.AsString()...)
		}
		prefix := []byte("prefix")
		if got := v.AppendBinary(prefix); string(got) != "prefix"+string(want) {
			t.Errorf("AppendBinary(%v) = %x, want prefix then %x", v, got, want)
		}
		if got, _ := v.MarshalBinary(); string(got) != string(want) {
			t.Errorf("MarshalBinary(%v) = %x, want %x", v, got, want)
		}
		if got := v.BinaryLen(); got != len(want) {
			t.Errorf("BinaryLen(%v) = %d, want %d", v, got, len(want))
		}
		buf := make([]byte, 0, 64)
		if n := testing.AllocsPerRun(10, func() { buf = v.AppendBinary(buf[:0]) }); n != 0 {
			t.Errorf("AppendBinary(%v) into a buffer with room: %.0f allocations", v, n)
		}
	}
}

func TestUnmarshalBinaryErrors(t *testing.T) {
	var v Value
	if err := v.UnmarshalBinary(nil); err == nil {
		t.Fatal("empty encoding accepted")
	}
	if err := v.UnmarshalBinary([]byte{0, 1, 2}); err == nil {
		t.Fatal("short int encoding accepted")
	}
	if err := v.UnmarshalBinary([]byte{99, 0}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestQuickMarshalBinary(t *testing.T) {
	f := func(i int64, s string, pickStr bool) bool {
		var v Value
		if pickStr {
			v = Str(s)
		} else {
			v = Int(i)
		}
		data, err := v.MarshalBinary()
		if err != nil {
			return false
		}
		var got Value
		return got.UnmarshalBinary(data) == nil && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
