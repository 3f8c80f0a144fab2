package wal

import (
	"encoding/binary"
	"fmt"

	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// Transaction records are the WAL's only payload today. The encoding is
// deliberately hand-rolled rather than gob: every record is
// self-contained (no stream state to lose across a crash), byte-for-byte
// deterministic, and a third the size.
//
//	uvarint time
//	uvarint opCount
//	per op: 1 byte insert flag (1/0)
//	        uvarint relation-name length, name bytes
//	        uvarint arity
//	        per value: uvarint length, value.MarshalBinary bytes

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
		if op.Insert {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(op.Rel)))
		buf = append(buf, op.Rel...)
		buf = binary.AppendUvarint(buf, uint64(len(op.Tuple)))
		for _, v := range op.Tuple {
			buf = binary.AppendUvarint(buf, uint64(v.BinaryLen()))
			buf = v.AppendBinary(buf)
		}
	}
	return buf
}

// DecodeTx parses a record payload written by EncodeTx. Every length is
// bounds-checked against the remaining bytes, so damaged input (which
// the CRC should already have rejected) yields an error, never a panic
// or an oversized allocation.
func DecodeTx(data []byte) (uint64, *storage.Transaction, error) {
	c := cursor{data: data}
	t, err := c.uvarint("time")
	if err != nil {
		return 0, nil, err
	}
	nops, err := c.uvarint("op count")
	if err != nil {
		return 0, nil, err
	}
	// Each op occupies at least 3 bytes (flag, name length, arity), so a
	// count beyond the remaining bytes is garbage.
	if nops > uint64(len(data)) {
		return 0, nil, fmt.Errorf("wal: record claims %d ops in %d bytes", nops, len(data))
	}
	tx := storage.NewTransaction()
	for i := uint64(0); i < nops; i++ {
		flag, err := c.byte("insert flag")
		if err != nil {
			return 0, nil, err
		}
		if flag > 1 {
			return 0, nil, fmt.Errorf("wal: op %d: bad insert flag %d", i, flag)
		}
		rel, err := c.lenBytes("relation name")
		if err != nil {
			return 0, nil, err
		}
		arity, err := c.uvarint("arity")
		if err != nil {
			return 0, nil, err
		}
		if arity > uint64(len(data)) {
			return 0, nil, fmt.Errorf("wal: op %d: arity %d exceeds record size", i, arity)
		}
		row := make(tuple.Tuple, arity)
		for j := range row {
			vb, err := c.lenBytes("value")
			if err != nil {
				return 0, nil, err
			}
			if err := row[j].UnmarshalBinary(vb); err != nil {
				return 0, nil, fmt.Errorf("wal: op %d value %d: %w", i, j, err)
			}
		}
		if flag == 1 {
			tx.Insert(string(rel), row)
		} else {
			tx.Delete(string(rel), row)
		}
	}
	if c.off != len(data) {
		return 0, nil, fmt.Errorf("wal: %d trailing bytes after transaction record", len(data)-c.off)
	}
	return t, tx, nil
}

// cursor is a bounds-checked reader over a record payload.
type cursor struct {
	data []byte
	off  int
}

func (c *cursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated %s at byte %d", what, c.off)
	}
	// Reject over-long varint spellings so every value has exactly one
	// encoding — records are comparable byte-for-byte.
	if n > 1 && v>>(7*(n-1)) == 0 {
		return 0, fmt.Errorf("wal: non-minimal varint for %s at byte %d", what, c.off)
	}
	c.off += n
	return v, nil
}

func (c *cursor) byte(what string) (byte, error) {
	if c.off >= len(c.data) {
		return 0, fmt.Errorf("wal: truncated %s at byte %d", what, c.off)
	}
	b := c.data[c.off]
	c.off++
	return b, nil
}

// lenBytes reads a uvarint length followed by that many bytes.
func (c *cursor) lenBytes(what string) ([]byte, error) {
	n, err := c.uvarint(what + " length")
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.data)-c.off) {
		return nil, fmt.Errorf("wal: %s of %d bytes exceeds the %d remaining", what, n, len(c.data)-c.off)
	}
	b := c.data[c.off : c.off+int(n)]
	c.off += int(n)
	return b, nil
}
