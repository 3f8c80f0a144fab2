package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// Records. A record is a payload in a frame:
//
//	[4 bytes LE payload length][4 bytes LE CRC32C of payload][payload]
//
// and a payload is built from uvarints, length-prefixed bytes and rows
// (each value a uvarint length and its value.MarshalBinary bytes). The
// encoding is hand-rolled rather than gob: every record is
// self-contained (no stream state to lose across a crash), byte-for-byte
// deterministic, and a third the size. The journal's records are
// transactions:
//
//	uvarint time
//	uvarint opCount
//	per op: 1 byte insert flag (1/0)
//	        uvarint relation-name length, name bytes
//	        uvarint arity, the row
//
// A core snapshot is a sequence of records of its own kinds in the same
// framing and codec (see core.Checker.SaveSnapshot).

// OpenFrame appends room for a frame header to buf; the payload follows
// it, and SealFrame fills the header in.
//
//rtic:noalloc
func OpenFrame(buf []byte) []byte { return append(buf, 0, 0, 0, 0, 0, 0, 0, 0) }

// SealFrame fills in the header of the frame OpenFrame opened at
// buf[start:], whose payload runs to the end of buf: at least one byte,
// at most max.
func SealFrame(buf []byte, start, max int) error {
	p := buf[start+frameHeaderSize:]
	switch {
	case len(p) == 0:
		return errors.New("wal: empty record")
	case len(p) > max:
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap", len(p), max)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(p)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(p, castagnoli))
	return nil
}

// SplitFrame reads the frame at the head of data, whose payload may be
// at most max bytes, and returns the payload and the bytes after the
// frame.
func SplitFrame(data []byte, max int) (payload, rest []byte, err error) {
	if len(data) < frameHeaderSize {
		return nil, nil, fmt.Errorf("wal: record truncated in header (%d of %d bytes)", len(data), frameHeaderSize)
	}
	n := binary.LittleEndian.Uint32(data)
	if n == 0 || uint64(n) > uint64(max) {
		return nil, nil, fmt.Errorf("wal: implausible payload length %d", n)
	}
	if uint64(n) > uint64(len(data)-frameHeaderSize) {
		return nil, nil, fmt.Errorf("wal: record truncated: header promises %d payload bytes, %d follow", n, len(data)-frameHeaderSize)
	}
	payload = data[frameHeaderSize : frameHeaderSize+int(n)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[4:]); got != want {
		return nil, nil, fmt.Errorf("wal: record checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return payload, data[frameHeaderSize+int(n):], nil
}

// AppendString appends s as a uvarint length and its bytes.
//
//rtic:noalloc
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// AppendFlag appends f as one byte, 1 or 0.
//
//rtic:noalloc
func AppendFlag(buf []byte, f bool) []byte {
	if f {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendRow appends row's values, each a uvarint length and its binary
// encoding; the arity is the reader's to know.
//
//rtic:noalloc
func AppendRow(buf []byte, row tuple.Tuple) []byte {
	for _, v := range row {
		buf = binary.AppendUvarint(buf, uint64(v.BinaryLen()))
		buf = v.AppendBinary(buf)
	}
	return buf
}

// EncodeTx serializes one committed transaction into a record payload.
// Log.AppendTx writes the same bytes without building them apart.
func EncodeTx(t uint64, tx *storage.Transaction) []byte {
	return appendTx(make([]byte, 0, 16+32*len(tx.Ops())), t, tx)
}

// appendTx appends the record payload of tx at t to buf: the one
// encoder behind EncodeTx and Log.AppendTx.
//
//rtic:noalloc
func appendTx(buf []byte, t uint64, tx *storage.Transaction) []byte {
	ops := tx.Ops()
	buf = binary.AppendUvarint(buf, t)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = AppendString(AppendFlag(buf, op.Insert), op.Rel)
		buf = binary.AppendUvarint(buf, uint64(len(op.Tuple)))
		buf = AppendRow(buf, op.Tuple)
	}
	return buf
}

// DecodeTx parses a record payload written by EncodeTx. Every length is
// bounds-checked against the remaining bytes, so damaged input (which
// the CRC should already have rejected) yields an error, never a panic
// or an oversized allocation.
func DecodeTx(data []byte) (uint64, *storage.Transaction, error) {
	c := NewCursor(data)
	t := c.Uvarint("time")
	// Each op occupies at least 3 bytes (flag, name length, arity).
	nops := c.Count("op", 3)
	tx := storage.NewTransaction()
	for i := 0; i < nops && c.err == nil; i++ {
		insert := c.Flag("insert flag")
		rel := string(c.Bytes("relation name"))
		row := make(tuple.Tuple, c.Count("value", 2))
		if c.Row(row); insert {
			tx.Insert(rel, row)
		} else {
			tx.Delete(rel, row)
		}
	}
	if err := c.Done("transaction"); err != nil {
		return 0, nil, err
	}
	return t, tx, nil
}

// Cursor is a bounds-checked reader over a record payload. Its first
// error sticks: every later read returns zero values, and Err or Done
// reports it.
type Cursor struct {
	data []byte
	off  int
	err  error
}

// NewCursor reads payload from its first byte.
func NewCursor(payload []byte) Cursor { return Cursor{data: payload} }

// Fail records err unless an earlier error stuck.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Err returns the error that stuck, if any.
func (c *Cursor) Err() error { return c.err }

// Done returns the error that stuck, or an error if the payload, a
// what, was not read to its end.
func (c *Cursor) Done(what string) error {
	if c.err == nil && c.off != len(c.data) {
		c.err = fmt.Errorf("wal: %d trailing bytes after %s record", len(c.data)-c.off, what)
	}
	return c.err
}

// Uvarint reads a uvarint; what names it in errors.
func (c *Cursor) Uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.data[c.off:])
	switch {
	case n <= 0:
		c.err = fmt.Errorf("wal: truncated %s at byte %d", what, c.off)
	case n > 1 && v>>(7*(n-1)) == 0:
		// An over-long spelling: every value has exactly one encoding, so
		// records are comparable byte for byte.
		c.err = fmt.Errorf("wal: non-minimal varint for %s at byte %d", what, c.off)
	default:
		c.off += n
		return v
	}
	return 0
}

// Count reads the uvarint count of a run of elements that occupy at
// least min bytes each, refusing one the remaining bytes cannot hold —
// so a caller may allocate for it. With min 0 any count below 2^31
// passes.
func (c *Cursor) Count(what string, min int) int {
	n := c.Uvarint(what + " count")
	if min > 0 && n > uint64(len(c.data)-c.off)/uint64(min) || n > 1<<31 {
		c.Fail(fmt.Errorf("wal: %d %ss claimed in the %d bytes remaining", n, what, len(c.data)-c.off))
		return 0
	}
	return int(n)
}

// Flag reads a byte that must be 1 (true) or 0 (false).
func (c *Cursor) Flag(what string) bool {
	switch {
	case c.err != nil:
	case c.off >= len(c.data):
		c.err = fmt.Errorf("wal: truncated %s at byte %d", what, c.off)
	case c.data[c.off] > 1:
		c.err = fmt.Errorf("wal: bad %s %d at byte %d", what, c.data[c.off], c.off)
	default:
		c.off++
		return c.data[c.off-1] == 1
	}
	return false
}

// Bytes reads a uvarint length followed by that many bytes, which alias
// the payload.
func (c *Cursor) Bytes(what string) []byte {
	n := c.Uvarint(what + " length")
	if n > uint64(len(c.data)-c.off) {
		c.Fail(fmt.Errorf("wal: %s of %d bytes exceeds the %d remaining", what, n, len(c.data)-c.off))
	}
	if c.err != nil {
		return nil
	}
	c.off += int(n)
	return c.data[c.off-int(n) : c.off]
}

// Row reads len(row) values, as AppendRow wrote them, into row.
func (c *Cursor) Row(row tuple.Tuple) {
	for j := range row {
		if vb := c.Bytes("value"); c.err == nil {
			if err := row[j].UnmarshalBinary(vb); err != nil {
				c.err = fmt.Errorf("wal: value %d: %w", j, err)
			}
		}
	}
}
