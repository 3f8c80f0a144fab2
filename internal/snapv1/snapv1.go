// Package snapv1 reads version-1 checker snapshots and rewrites them as
// the current format. Version 1 was a gob payload in an envelope — an
// 8-byte magic ("RTICSNP1"), the payload length (8 bytes LE) and a
// CRC32C of the payload (4 bytes LE) — alone or as the shard snapshots
// of a router's checkpoint, and is read nowhere else: the daemon refuses
// it, and the library (rtic.RestoreChecker, rtic.UpgradeSnapshot)
// converts it through this package. Decoding only; nothing writes
// version 1.
package snapv1

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"rtic/internal/core"
	"rtic/internal/schema"
	"rtic/internal/shard"
)

// Magic opens a version-1 snapshot.
const Magic = "RTICSNP1"

// maxPayloadBytes caps the payload length Rewrite will allocate.
const maxPayloadBytes = 1 << 30

// Rewrite reads a version-1 snapshot over s from r and returns the same
// state as a current snapshot (core.Checker.SaveSnapshot). Its once/since
// families are unprimed and its denials unchecked, so the first commit
// after loading it primes and checks them, as version 1 always did.
func Rewrite(s *schema.Schema, r io.Reader) ([]byte, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapv1: snapshot truncated in header (%d-byte envelope): %w", len(hdr), err)
	}
	if string(hdr[:8]) != Magic {
		return nil, fmt.Errorf("snapv1: not a version-1 rtic snapshot (magic %q, want %q)", hdr[:8], Magic)
	}
	size := binary.LittleEndian.Uint64(hdr[8:16])
	if size == 0 || size > maxPayloadBytes {
		return nil, fmt.Errorf("snapv1: snapshot header corrupted: implausible payload length %d", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("snapv1: snapshot truncated: header promises %d payload bytes: %w", size, err)
	}
	want := binary.LittleEndian.Uint32(hdr[16:20])
	if got := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)); got != want {
		return nil, fmt.Errorf("snapv1: snapshot corrupted: checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	var snap core.V1Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("snapv1: decoding snapshot: %w", err)
	}
	c, err := core.FromV1(s, &snap)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := c.SaveSnapshot(&out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Upgrade writes to w the checkpoint r holds, in the current format: a
// version-1 checker snapshot rewritten, a router's checkpoint with its
// version-1 shard snapshots rewritten under the same shard count and
// plan, and a current checker snapshot as it is.
func Upgrade(s *schema.Schema, r io.Reader, w io.Writer) error {
	br := bufio.NewReader(r)
	magic, _ := br.Peek(len(Magic))
	switch {
	case string(magic) == Magic:
		v2, err := Rewrite(s, br)
		if err == nil {
			_, err = w.Write(v2)
		}
		return err
	case bytes.HasPrefix(magic, []byte("RTICSNP")): // a checker snapshot of a later version
		_, err := io.Copy(w, br)
		return err
	}
	return shard.RewriteSnapshot(br, w, func(_ int, snap []byte) ([]byte, error) {
		if bytes.HasPrefix(snap, []byte(Magic)) {
			return Rewrite(s, bytes.NewReader(snap))
		}
		return snap, nil
	})
}
