// Package durable is the CA's persistence subsystem: a segmented,
// CRC32C-framed write-ahead log (wal.go) with a configurable fsync
// policy, point-in-time snapshots with log compaction (snapshot.go), and
// a State (state.go) that journals every mutation of the image store,
// the registration authority and the session table, and replays
// WAL-over-snapshot on open. The package owns the state's one byte
// format: a snapshot, an enrolment file and a follower's catch-up
// transfer are each a run of the records the log holds.
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
	"rbcsalted/internal/wire"
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
	OpNonceLease
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
	case OpNonceLease:
		return "nonce-lease"
	default:
		return fmt.Sprintf("op-%d", uint8(op))
	}
}

// Record is one journaled mutation. Which fields are meaningful depends
// on Op: Blob carries the sealed image (OpImagePut) or the public key
// (OpRAKey), Cert the certificate (OpRACert), Challenge the session
// challenge (OpSessionOpen); the delete/close ops carry only ID. A nonce
// lease belongs to no client: it carries only Lease, the ceiling below
// which the CA may issue challenge nonces.
//
// Every payload starts with its op byte. A client's record continues
// with a u32 ID length and the ID, then the op's fields; a lease is the
// op byte and Lease as a u64, nothing else.
type Record struct {
	Op        Op
	ID        core.ClientID
	Blob      []byte
	Cert      *core.Certificate
	Challenge *core.Challenge
	Lease     uint64
}

// Decode limits: a record larger than these is corruption (or hostile
// input), not state. The widest legitimate field is a sealed PUF image —
// a few KiB for the simulated devices; 16 MiB leaves room for far larger
// real enrollments.
const (
	maxIDLen      = 1 << 10
	maxBlobLen    = 1 << 24
	maxAddressMap = 1 << 16
	// leaseLen is the size of an OpNonceLease payload.
	leaseLen = 1 + 8
)

// ErrBadRecord reports a WAL record payload that does not decode.
var ErrBadRecord = errors.New("durable: malformed WAL record")

// appendField writes a u32 length prefix followed by the bytes.
func appendField[T ~string | ~[]byte](out []byte, b T) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
	return append(out, b...)
}

// Encode serializes the record payload (the framing — seq, length, CRC —
// is the WAL's job) into one buffer of exactly its size.
func (r *Record) Encode() ([]byte, error) {
	if r.Op == OpNonceLease {
		return binary.BigEndian.AppendUint64(append(make([]byte, 0, leaseLen), byte(r.Op)), r.Lease), nil
	}
	if len(r.ID) == 0 || len(r.ID) > maxIDLen {
		return nil, fmt.Errorf("%w: client id length %d", ErrBadRecord, len(r.ID))
	}
	size := 1 + 4 + len(r.ID)
	switch r.Op {
	case OpImagePut, OpRAKey:
		if len(r.Blob) == 0 || len(r.Blob) > maxBlobLen {
			return nil, fmt.Errorf("%w: %s blob length %d", ErrBadRecord, r.Op, len(r.Blob))
		}
		size += 4 + len(r.Blob)
	case OpImageDelete, OpRADelete, OpSessionClose:
		// ID only.
	case OpRACert:
		c := r.Cert
		if c == nil {
			return nil, fmt.Errorf("%w: %s without certificate", ErrBadRecord, r.Op)
		}
		size += 4 + len(c.KeyAlgorithm) + 4 + len(c.PublicKey) + 8 + 8 + 4 + len(c.Signature)
	case OpSessionOpen:
		ch := r.Challenge
		if ch == nil {
			return nil, fmt.Errorf("%w: %s without challenge", ErrBadRecord, r.Op)
		}
		if len(ch.AddressMap) == 0 || len(ch.AddressMap) > maxAddressMap {
			return nil, fmt.Errorf("%w: address map length %d", ErrBadRecord, len(ch.AddressMap))
		}
		size += 8 + 1 + 8 + 4 + 4*len(ch.AddressMap)
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrBadRecord, r.Op)
	}

	out := make([]byte, 0, size)
	out = append(out, byte(r.Op))
	out = appendField(out, r.ID)
	switch r.Op {
	case OpImagePut, OpRAKey:
		out = appendField(out, r.Blob)
	case OpRACert:
		c := r.Cert
		out = appendField(out, c.KeyAlgorithm)
		out = appendField(out, c.PublicKey)
		out = binary.BigEndian.AppendUint64(out, uint64(c.IssuedAt.Unix()))
		out = binary.BigEndian.AppendUint64(out, uint64(c.ExpiresAt.Unix()))
		out = appendField(out, c.Signature)
	case OpSessionOpen:
		ch := r.Challenge
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
	}
	return out, nil
}

// RecordID parses only the front of a record payload: its op byte and
// client ID. The rest is neither decoded nor validated, which is enough
// to route a record by shard without paying for DecodeRecord. The ID
// aliases p; a nonce lease has none, and every shard wants it.
func RecordID(p []byte) (Op, []byte, error) {
	r := wire.NewCursor(p)
	op := Op(r.U8())
	if op == OpNonceLease {
		return op, nil, nil
	}
	n := r.U32()
	if n == 0 || n > maxIDLen {
		return 0, nil, ErrBadRecord
	}
	id := r.Bytes(int(n))
	if !r.OK() {
		return 0, nil, ErrBadRecord
	}
	return op, id, nil
}

// DecodeRecord parses a record payload written by Encode. It never
// panics on hostile input (see FuzzWALDecode) and rejects trailing
// bytes, oversized fields and unknown ops with ErrBadRecord.
func DecodeRecord(p []byte) (*Record, error) {
	op, id, err := RecordID(p)
	if err != nil {
		return nil, err
	}
	if op == OpNonceLease {
		if len(p) != leaseLen {
			return nil, fmt.Errorf("%w: %d-byte %s", ErrBadRecord, len(p), op)
		}
		return &Record{Op: op, Lease: binary.BigEndian.Uint64(p[1:])}, nil
	}
	r := wire.NewCursor(p[1+4+len(id):])
	field := func(max int) []byte {
		n := int(r.U32())
		if n > max {
			n = -1 // fails the read
		}
		return append([]byte(nil), r.Bytes(n)...)
	}
	rec := &Record{Op: op, ID: core.ClientID(id)}
	switch rec.Op {
	case OpImagePut, OpRAKey:
		if rec.Blob = field(maxBlobLen); len(rec.Blob) == 0 {
			return nil, ErrBadRecord
		}
	case OpImageDelete, OpRADelete, OpSessionClose:
		// ID only.
	case OpRACert:
		rec.Cert = &core.Certificate{
			ClientID:     rec.ID,
			KeyAlgorithm: string(field(maxIDLen)),
			PublicKey:    field(maxBlobLen),
			IssuedAt:     time.Unix(int64(r.U64()), 0),
			ExpiresAt:    time.Unix(int64(r.U64()), 0),
			Signature:    field(maxBlobLen),
		}
	case OpSessionOpen:
		ch := &core.Challenge{Nonce: r.U64(), Alg: core.HashAlg(r.U8()), IssuedAt: time.Unix(0, int64(r.U64()))}
		n := r.U32()
		if n == 0 || n > maxAddressMap || int(n) > r.Len()/4 {
			return nil, ErrBadRecord
		}
		ch.AddressMap = make([]int, n)
		for i := range ch.AddressMap {
			ch.AddressMap[i] = int(r.U32())
		}
		rec.Challenge = ch
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrBadRecord, uint8(rec.Op))
	}
	if !r.OK() {
		return nil, ErrBadRecord
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, r.Len())
	}
	return rec, nil
}
