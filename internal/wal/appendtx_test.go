package wal

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

// journalCorpus is what TestAppendTxMatchesAppend journals: CDC feeds,
// the FuzzDecodeTx seeds that decode, and a record over 64 KiB.
func journalCorpus() []struct {
	t  uint64
	tx *storage.Transaction
} {
	var recs []struct {
		t  uint64
		tx *storage.Transaction
	}
	add := func(t uint64, tx *storage.Transaction) {
		recs = append(recs, struct {
			t  uint64
			tx *storage.Transaction
		}{t, tx})
	}
	for _, cfg := range []cdcgen.Config{
		{Steps: 300, Seed: 7, Sensors: 24},
		{Steps: 100, Seed: 104, BurstLen: 8, BurstEvery: 10, ViolationRate: 0.3},
		{Steps: 100, Seed: 106, MaxReorder: 5, LateRate: 0.6, ViolationRate: 0.2},
	} {
		h, _ := cdcgen.Generate(cfg)
		for _, st := range h.Steps {
			add(st.Time+uint64(len(recs))<<32, st.Tx)
		}
	}
	for _, seed := range [][]byte{
		EncodeTx(100, storage.NewTransaction().Insert("hire", tuple.Ints(7))),
		EncodeTx(0, storage.NewTransaction()),
		{0, 1, 1, 1, 'p', 1, 9, 0},
	} {
		if t, tx, err := DecodeTx(seed); err == nil {
			add(t, tx)
		}
	}
	add(1<<62, storage.NewTransaction().
		Insert("blob", tuple.Of(value.Str(strings.Repeat("x", 70<<10)), value.Int(-1))).
		Delete("n", tuple.Ints(-1<<63, 1<<63-1)))
	return recs
}

// TestAppendTxMatchesAppend: a journal written through AppendTx is byte
// for byte the one Append(EncodeTx(t, tx)) writes, and both are the
// bytes the record format has always had (the digest was taken from a
// build whose EncodeTx marshaled each value on its own), so journals
// written before recover after.
func TestAppendTxMatchesAppend(t *testing.T) {
	const digest = "13cdcc3cd3c8d99fd781a96b80d9e100501decb547e6b7c7b1aa7b631eb9469f"
	dir := t.TempDir()
	write := func(name string, appendOne func(*Log, uint64, *storage.Transaction) error) []byte {
		path := filepath.Join(dir, name)
		l, err := Open(path, WithSyncPolicy(SyncBatch))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range journalCorpus() {
			if err := appendOne(l, r.t, r.tx); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	viaTx := write("appendtx.wal", (*Log).AppendTx)
	viaPayload := write("append.wal", func(l *Log, t uint64, tx *storage.Transaction) error {
		return l.Append(EncodeTx(t, tx))
	})
	if string(viaTx) != string(viaPayload) {
		t.Fatalf("AppendTx wrote %d bytes, Append(EncodeTx) %d, and they differ", len(viaTx), len(viaPayload))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(viaTx)); got != digest {
		t.Fatalf("journal digest %s, want %s: the record format moved", got, digest)
	}
}

// TestAppendTxFrameBuffer: a journaled commit reuses the log's frame
// buffer, so once the buffer fits its records an append allocates
// nothing; a record over 64 KiB is written from a buffer the log drops
// when the append returns.
func TestAppendTxFrameBuffer(t *testing.T) {
	l, _ := tmpLog(t, WithSyncPolicy(SyncBatch))
	tx := storage.NewTransaction().
		Insert("reading", tuple.Of(value.Str("sensor-7"), value.Int(42))).
		Delete("stale", tuple.Of(value.Str("sensor-7")))
	ts := uint64(0)
	if err := l.AppendTx(ts, tx); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		ts++
		if err := l.AppendTx(ts, tx); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendTx with a warm frame buffer: %.1f allocations, want 0", n)
	}
	kept := cap(l.frame)
	big := storage.NewTransaction().Insert("blob", tuple.Of(value.Str(strings.Repeat("x", 70<<10))))
	if err := l.AppendTx(ts+1, big); err != nil {
		t.Fatal(err)
	}
	if l.frame != nil {
		t.Fatalf("after a %d-byte record the log keeps a %d-byte frame buffer, want none", len(EncodeTx(ts+1, big)), cap(l.frame))
	}
	if err := l.AppendTx(ts+2, tx); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.frame); c > maxKeptFrame || c == 0 {
		t.Fatalf("frame buffer of %d bytes after a small record (%d before the large one)", c, kept)
	}
}
