package snapv1

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/core"
	"rtic/internal/schema"
	"rtic/internal/shard"
)

// fixture is a version-1 snapshot of the CDC feed (seed 5) after 100
// commits, written by a build that wrote version 1; its schema is the
// feed's.
func fixture(t *testing.T) (*schema.Schema, []byte) {
	t.Helper()
	h, _ := cdcgen.Generate(cdcgen.Config{Steps: 160, Seed: 5, Sensors: 8, BurstLen: 4, BurstEvery: 10, ViolationRate: 0.1})
	raw, err := os.ReadFile("../core/testdata/pr15_cdc_seed5_step100.snap")
	if err != nil {
		t.Fatal(err)
	}
	return h.Schema, raw
}

// TestRewriteRejectsDamage sends damaged copies of a version-1 file
// through Rewrite: each fails the envelope check it breaks, by name.
func TestRewriteRejectsDamage(t *testing.T) {
	s, raw := fixture(t)
	if _, err := Rewrite(s, bytes.NewReader(raw)); err != nil {
		t.Fatalf("the intact fixture: %v", err)
	}
	with := func(edit func(b []byte) []byte) []byte { return edit(append([]byte(nil), raw...)) }
	setLen := func(n uint64) []byte {
		return with(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[8:16], n); return b })
	}
	// garbage is a payload gob cannot decode in a sound envelope.
	garbage := with(func(b []byte) []byte {
		p := bytes.Repeat([]byte{0xff}, 32)
		binary.LittleEndian.PutUint64(b[8:16], uint64(len(p)))
		binary.LittleEndian.PutUint32(b[16:20], crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
		return append(b[:20], p...)
	})
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty file", nil, "truncated in header"},
		{"header cut short", raw[:12], "truncated in header"},
		{"wrong magic", with(func(b []byte) []byte { b[7] = '2'; return b }), "not a version-1 rtic snapshot"},
		{"zero length", setLen(0), "implausible payload length 0"},
		{"forged length", setLen(1 << 40), "implausible payload length"},
		{"length past the end", setLen(uint64(len(raw))), "truncated: header promises"},
		{"payload cut in half", raw[:20+(len(raw)-20)/2], "truncated: header promises"},
		{"payload bit flip", with(func(b []byte) []byte { b[len(b)/2] ^= 0x04; return b }), "checksum mismatch"},
		{"checksum bit flip", with(func(b []byte) []byte { b[17] ^= 0x01; return b }), "checksum mismatch"},
		{"undecodable payload", garbage, "decoding snapshot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Rewrite(s, bytes.NewReader(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Rewrite: %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestUpgrade converts both shapes of a version-1 checkpoint — a
// checker's, and a router's over two shards written by the daemon of a
// build that wrote version 1 — into files the current loaders accept,
// and copies a current one unchanged, so upgrading twice is upgrading
// once.
func TestUpgrade(t *testing.T) {
	s, raw := fixture(t)
	var out bytes.Buffer
	if err := Upgrade(s, bytes.NewReader(raw), &out); err != nil {
		t.Fatal(err)
	}
	want, err := Rewrite(s, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("Upgrade of a checker's snapshot differs from Rewrite's")
	}
	if _, err := core.LoadSnapshot(s, bytes.NewReader(out.Bytes())); err != nil {
		t.Fatal(err)
	}

	hr, err := schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	routed, err := os.ReadFile("../../cmd/rticd/testdata/hr_shards2_v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.LoadSnapshot(hr, bytes.NewReader(routed), 2); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("the router loaded version-1 shards, or refused them without naming the version: %v", err)
	}
	var up bytes.Buffer
	if err := Upgrade(hr, bytes.NewReader(routed), &up); err != nil {
		t.Fatal(err)
	}
	r, err := shard.LoadSnapshot(hr, bytes.NewReader(up.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Now() != 10 {
		t.Fatalf("converted router at %d commits, t=%d; the checkpoint was taken after 2, at t=10", r.Len(), r.Now())
	}

	for _, current := range [][]byte{out.Bytes(), up.Bytes()} {
		var again bytes.Buffer
		if err := Upgrade(hr, bytes.NewReader(current), &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), current) {
			t.Fatal("upgrading a current checkpoint changed it")
		}
	}
	if err := Upgrade(hr, strings.NewReader("this is no checkpoint of any kind"), &out); err == nil || !strings.Contains(err.Error(), "not a sharded rtic snapshot") {
		t.Fatalf("Upgrade of a stranger: %v", err)
	}
}
