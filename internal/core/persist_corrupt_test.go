package core

import (
	"bytes"
	"strings"
	"testing"

	"rtic/internal/check"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// corruptSnapshotFixture produces a valid snapshot of a checker with
// live auxiliary state, as raw bytes.
func corruptSnapshotFixture(t *testing.T) ([]byte, *schema.Schema) {
	t.Helper()
	s := schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	c := New(s)
	con, err := check.Parse("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddConstraint(con); err != nil {
		t.Fatal(err)
	}
	for i, tx := range []*storage.Transaction{
		storage.NewTransaction().Insert("fire", tuple.Ints(7)),
		storage.NewTransaction().Insert("hire", tuple.Ints(7)),
	} {
		if _, err := c.Step(uint64(i*100), tx); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), s
}

// TestLoadSnapshotRejectsDamage feeds truncated, bit-flipped, and
// wrong-magic snapshots to LoadSnapshot and demands a descriptive error
// every time — no panics, no silently partial state. The offsets are the
// layout's: an 8-byte magic, then the header record's frame — payload
// length at bytes 8–11, its CRC32C at 12–15, the payload from 16 on —
// and the other records' frames after it.
func TestLoadSnapshotRejectsDamage(t *testing.T) {
	raw, s := corruptSnapshotFixture(t)

	flip := func(off int) []byte {
		b := append([]byte(nil), raw...)
		b[off] ^= 0x01
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"empty file", nil, "truncated in header"},
		{"header only partially present", raw[:10], "truncated in header"},
		{"wrong magic", append([]byte("NOTASNAP"), raw[8:]...), "not an rtic snapshot"},
		{"records without magic", raw[8:], "not an rtic snapshot"},
		{"payload truncated at start", raw[:21], "truncated"},
		{"payload truncated near end", raw[:len(raw)-1], "truncated"},
		{"payload truncated halfway", raw[:20+(len(raw)-20)/2], "truncated"},
		{"length field corrupted", flip(8), ""},
		{"checksum field corrupted", flip(13), "checksum mismatch"},
		{"payload bit flip early", flip(17), "checksum mismatch"},
		{"payload bit flip late", flip(len(raw) - 2), "checksum mismatch"},
		{"extreme length field", func() []byte {
			b := append([]byte(nil), raw...)
			for i := 8; i < 16; i++ {
				b[i] = 0xff
			}
			return b
		}(), "implausible payload length"},
		{"zero length field", func() []byte {
			b := append([]byte(nil), raw...)
			for i := 8; i < 16; i++ {
				b[i] = 0
			}
			return b
		}(), "implausible payload length"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := LoadSnapshot(s, bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("damaged snapshot accepted (checker: %d states)", c.Len())
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestLoadSnapshotEveryTruncation sweeps every truncation point of a
// real snapshot: none may panic or load, except the full length which
// must round-trip.
func TestLoadSnapshotEveryTruncation(t *testing.T) {
	raw, s := corruptSnapshotFixture(t)
	for cut := 0; cut < len(raw); cut++ {
		if _, err := LoadSnapshot(s, bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("cut=%d: truncated snapshot accepted", cut)
		}
	}
	c, err := LoadSnapshot(s, bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	if c.Len() != 2 || c.Now() != 100 {
		t.Errorf("restored Len=%d Now=%d, want 2/100", c.Len(), c.Now())
	}
}
