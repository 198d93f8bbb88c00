// Package durable is the CA's persistence subsystem: a segmented,
// CRC32C-framed write-ahead log (wal.go) with a configurable fsync
// policy, point-in-time snapshots with log compaction (snapshot.go), and
// a State (state.go) that journals every mutation of the image store,
// the registration authority and the session table, and replays
// WAL-over-snapshot on open.
//
// The motivating property is the paper's: RBC-SALTED re-keys on every
// authentication, so the RA's registry changes on the hot path — a crash
// that loses a key update desynchronizes the client it belongs to. Every
// mutation therefore reaches the log before it reaches memory. PUF
// images enter the log already sealed under the ImageStore's AES-256-GCM
// master key, so neither the WAL nor any snapshot ever contains a
// plaintext image.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"rbcsalted/internal/core"
)

// Op tags a WAL record with the mutation it journals.
type Op uint8

// WAL record operations. Values are part of the on-disk format; never
// renumber.
const (
	OpImagePut Op = iota + 1
	OpImageDelete
	OpRAKey
	OpRACert
	OpRADelete
	OpSessionOpen
	OpSessionClose
)

// String names the op for logs and errors.
func (op Op) String() string {
	switch op {
	case OpImagePut:
		return "image-put"
	case OpImageDelete:
		return "image-delete"
	case OpRAKey:
		return "ra-key"
	case OpRACert:
		return "ra-cert"
	case OpRADelete:
		return "ra-delete"
	case OpSessionOpen:
		return "session-open"
	case OpSessionClose:
		return "session-close"
	default:
		return fmt.Sprintf("op-%d", uint8(op))
	}
}

// Record is one journaled mutation. Which fields are meaningful depends
// on Op: Blob carries the sealed image (OpImagePut) or the public key
// (OpRAKey), Cert the certificate (OpRACert), Challenge the session
// challenge (OpSessionOpen); the delete/close ops carry only ID.
type Record struct {
	Op        Op
	ID        core.ClientID
	Blob      []byte
	Cert      *core.Certificate
	Challenge *core.Challenge
}

// Decode limits: a record larger than these is corruption (or hostile
// input), not state. The widest legitimate field is a sealed PUF image —
// a few KiB for the simulated devices; 16 MiB leaves room for far larger
// real enrollments.
const (
	maxIDLen      = 1 << 10
	maxBlobLen    = 1 << 24
	maxAddressMap = 1 << 16
)

// ErrBadRecord reports a WAL record payload that does not decode.
var ErrBadRecord = errors.New("durable: malformed WAL record")

// appendField writes a u32 length prefix followed by the bytes.
func appendField(out []byte, b []byte) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
	return append(out, b...)
}

// Encode serializes the record payload (the framing — seq, length, CRC —
// is the WAL's job).
func (r *Record) Encode() ([]byte, error) {
	if len(r.ID) == 0 || len(r.ID) > maxIDLen {
		return nil, fmt.Errorf("%w: client id length %d", ErrBadRecord, len(r.ID))
	}
	out := make([]byte, 0, 64+len(r.Blob))
	out = append(out, byte(r.Op))
	out = appendField(out, []byte(r.ID))
	switch r.Op {
	case OpImagePut, OpRAKey:
		if len(r.Blob) == 0 || len(r.Blob) > maxBlobLen {
			return nil, fmt.Errorf("%w: %s blob length %d", ErrBadRecord, r.Op, len(r.Blob))
		}
		out = appendField(out, r.Blob)
	case OpImageDelete, OpRADelete, OpSessionClose:
		// ID only.
	case OpRACert:
		c := r.Cert
		if c == nil {
			return nil, fmt.Errorf("%w: %s without certificate", ErrBadRecord, r.Op)
		}
		out = appendField(out, []byte(c.KeyAlgorithm))
		out = appendField(out, c.PublicKey)
		out = binary.BigEndian.AppendUint64(out, uint64(c.IssuedAt.Unix()))
		out = binary.BigEndian.AppendUint64(out, uint64(c.ExpiresAt.Unix()))
		out = appendField(out, c.Signature)
	case OpSessionOpen:
		ch := r.Challenge
		if ch == nil {
			return nil, fmt.Errorf("%w: %s without challenge", ErrBadRecord, r.Op)
		}
		if len(ch.AddressMap) == 0 || len(ch.AddressMap) > maxAddressMap {
			return nil, fmt.Errorf("%w: address map length %d", ErrBadRecord, len(ch.AddressMap))
		}
		out = binary.BigEndian.AppendUint64(out, ch.Nonce)
		out = append(out, byte(ch.Alg))
		out = binary.BigEndian.AppendUint64(out, uint64(ch.IssuedAt.UnixNano()))
		out = binary.BigEndian.AppendUint32(out, uint32(len(ch.AddressMap)))
		for _, cell := range ch.AddressMap {
			if cell < 0 || uint64(cell) > 0xFFFFFFFF {
				return nil, fmt.Errorf("%w: cell index %d", ErrBadRecord, cell)
			}
			out = binary.BigEndian.AppendUint32(out, uint32(cell))
		}
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrBadRecord, r.Op)
	}
	return out, nil
}

// reader is a bounds-checked cursor over a record payload.
type reader struct {
	p   []byte
	off int
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.p) {
		return nil, ErrBadRecord
	}
	b := r.p[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *reader) field(max int) ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > max {
		return nil, ErrBadRecord
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// RecordID parses only the front of a record payload: its op byte and
// client ID. The rest is neither decoded nor validated, which is enough
// to route a record by shard without paying for DecodeRecord. The ID
// aliases p.
func RecordID(p []byte) (Op, []byte, error) {
	r := reader{p: p}
	opb, err := r.bytes(1)
	if err != nil {
		return 0, nil, err
	}
	n, err := r.u32()
	if err != nil {
		return 0, nil, err
	}
	if n == 0 || n > maxIDLen {
		return 0, nil, ErrBadRecord
	}
	id, err := r.bytes(int(n))
	if err != nil {
		return 0, nil, err
	}
	return Op(opb[0]), id, nil
}

// DecodeRecord parses a record payload written by Encode. It never
// panics on hostile input (see FuzzWALDecode) and rejects trailing
// bytes, oversized fields and unknown ops with ErrBadRecord.
func DecodeRecord(p []byte) (*Record, error) {
	op, id, err := RecordID(p)
	if err != nil {
		return nil, err
	}
	r := &reader{p: p, off: 1 + 4 + len(id)}
	rec := &Record{Op: op, ID: core.ClientID(id)}
	switch rec.Op {
	case OpImagePut, OpRAKey:
		if rec.Blob, err = r.field(maxBlobLen); err != nil {
			return nil, err
		}
		if len(rec.Blob) == 0 {
			return nil, ErrBadRecord
		}
	case OpImageDelete, OpRADelete, OpSessionClose:
		// ID only.
	case OpRACert:
		c := &core.Certificate{ClientID: rec.ID}
		alg, err := r.field(maxIDLen)
		if err != nil {
			return nil, err
		}
		c.KeyAlgorithm = string(alg)
		if c.PublicKey, err = r.field(maxBlobLen); err != nil {
			return nil, err
		}
		issued, err := r.u64()
		if err != nil {
			return nil, err
		}
		expires, err := r.u64()
		if err != nil {
			return nil, err
		}
		c.IssuedAt = time.Unix(int64(issued), 0)
		c.ExpiresAt = time.Unix(int64(expires), 0)
		if c.Signature, err = r.field(maxBlobLen); err != nil {
			return nil, err
		}
		rec.Cert = c
	case OpSessionOpen:
		ch := &core.Challenge{}
		if ch.Nonce, err = r.u64(); err != nil {
			return nil, err
		}
		algb, err := r.bytes(1)
		if err != nil {
			return nil, err
		}
		ch.Alg = core.HashAlg(algb[0])
		issued, err := r.u64()
		if err != nil {
			return nil, err
		}
		ch.IssuedAt = time.Unix(0, int64(issued))
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if n == 0 || n > maxAddressMap {
			return nil, ErrBadRecord
		}
		ch.AddressMap = make([]int, n)
		for i := range ch.AddressMap {
			cell, err := r.u32()
			if err != nil {
				return nil, err
			}
			ch.AddressMap[i] = int(cell)
		}
		rec.Challenge = ch
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrBadRecord, uint8(rec.Op))
	}
	if r.off != len(p) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(p)-r.off)
	}
	return rec, nil
}
