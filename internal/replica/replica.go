// Package replica streams the durable WAL from a primary CA node to
// followers, so a follower holds a byte-for-byte equivalent copy of the
// primary's client state and can be promoted when the primary dies.
//
// The unit of shipping is the WAL record payload (internal/durable):
// every journaled op is an idempotent overwrite or delete, so a
// follower can re-sequence records into its OWN log (durable.Ingest)
// and re-delivery after a reconnect converges instead of corrupting.
// The follower tracks its position in the primary's sequence space as a
// persisted cursor; the primary's watermark messages restate that
// position on an idle stream and so double as heartbeats.
//
// Catch-up is two-phase. A follower whose cursor still lies inside the
// primary's log gets the suffix via durable.TailFrom. A follower whose
// cursor was compacted away (durable.ErrTruncated) gets a synthesized
// full-state transfer instead: the primary encodes its store snapshots
// as ordinary WAL records (the nonce lease, sealed images, RA keys,
// certificates) and the follower reconciles — applying every record and
// deleting local entries the transfer did not mention — then resumes
// live tailing from the snapshot's sequence cut.
//
// Failover safety is epoch fencing. Every replication group has a
// fencing epoch, persisted in each node's meta file; Promote advances
// it. A subscribe carrying a higher epoch than the primary's proves a
// promotion happened elsewhere, so the primary fences itself (stops
// accepting subscribers, fires OnFenced) rather than split-brain; a
// follower offered a stream by a lower-epoch primary refuses it for the
// same reason. Promotion also bumps the challenge-nonce high-water mark,
// the highest nonce lease replicated, by PromoteNonceSlack, so nonces
// issued by the new primary can never collide with ones the dead primary
// leased but had not replicated. A node recovering its own log needs no
// such slack: it resumes at the lease ceiling it journaled.
//
// The wire protocol is a binary message set over internal/wire's
// length-prefixed frames: a u32 length (kind byte plus body), the kind
// byte, then the body. Every integer is big-endian and every layout is
// fixed:
//
//	subscribe    version u8 | epoch u64 | cursor u64 | numShards u32 |
//	             count u32 | count × shard u16 | idLen u16 | id
//	accept       epoch u64 | flags u8 | errLen u16 | err
//	record       seq u64 | payload
//	catchupDone  cut u64 | nonce u64
//	watermark    seq u64
//	ack          cursor u64
//
// A record's payload is the journaled record exactly as the primary's
// WAL holds it: it is shipped without re-encoding, and the follower's
// durable.Ingest is the one place it is decoded and validated.
//
// numShards, count and the shard list are left from the removed shard
// ring, when a follower could subscribe to a subset of shards. A
// follower sends numShards 0 and count allShards, the all-shards marker
// an older primary also accepts. A primary ignores numShards, which an
// older follower set to its ring's shard count, and refuses any other
// count (errShardSubset). id and err are at most 1 KiB, and accept's
// only flag is acceptSnapshot. A decoder rejects anything else,
// including trailing bytes, so every message but a subscribe, whose
// numShards may be anything, has exactly one encoding.
//
// Replication peers upgrade together. A subscribe leads with
// protocolVersion and a primary refuses any other version with an
// accept that names its own, then closes. The gob-framed protocol before
// this one (version 0) carried no version byte: a gob-era subscribe fails
// the version check, and a gob-era accept fails to decode, so in either
// upgrade order the mismatched pair errors, closes, and the follower's
// RunUntil redials until both ends speak the same version.
//
// Liveness is heartbeat-by-traffic: watermarks and acks flow even when
// no record does, so a peer silent for longer than its timeout is dead
// and is dropped.
package replica

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"rbcsalted/internal/durable"
	"rbcsalted/internal/wire"
)

// PromoteNonceSlack is added to the nonce high-water mark on every
// promotion. The dead primary may have issued nonces under a lease whose
// record never reached the follower; reissuing one would reproduce its
// address map and make a sniffed digest replayable. Only promotion needs
// a slack: recovery resumes at the node's own lease ceiling, and
// durable's one-time legacy slack covers only a directory written before
// leases.
const PromoteNonceSlack = 1 << 12

// ErrFenced reports that the primary refused a subscriber because a
// higher fencing epoch exists — this primary has been superseded.
var ErrFenced = errors.New("replica: primary fenced by a higher epoch")

// ErrStalePrimary reports that a follower refused a stream because the
// primary's epoch is older than the follower's own.
var ErrStalePrimary = errors.New("replica: primary epoch older than follower's")

// ErrPromoted reports that the follower stopped because Promote was
// called on it.
var ErrPromoted = errors.New("replica: follower promoted")

// errMalformed reports a message body that does not match its kind's
// layout.
var errMalformed = errors.New("replica: malformed message")

// errShardSubset refuses a subscribe from a follower built when the CA
// could be sharded that asked for a subset of the shards.
var errShardSubset = errors.New("replica: shard-subset subscribe refused: sharding was removed, a follower replicates every record")

// Message kinds on the replication stream.
const (
	kindSubscribe byte = iota + 1
	kindAccept
	kindRecord
	kindCatchupDone
	kindWatermark
	kindAck
)

// protocolVersion leads every subscribe (see the package comment).
const protocolVersion = 1

// Message bounds and layout values.
const (
	// maxReplicaFrame bounds one frame: the largest legitimate payload
	// is a sealed PUF image record (durable caps blobs at 1<<24).
	maxReplicaFrame = 1 << 25
	// allShards is a subscribe's shard count for no filter, the only
	// one a primary accepts.
	allShards = ^uint32(0)
	// maxStringLen bounds a subscribe's id and an accept's error.
	maxStringLen = 1 << 10
	// acceptSnapshot is the accept flag announcing a full-state transfer.
	acceptSnapshot = 1
)

// subscribeMsg is the follower's opening message.
type subscribeMsg struct {
	// FollowerID identifies the subscriber in the primary's liveness
	// table.
	FollowerID string
	// Epoch is the follower's fencing epoch. Higher than the primary's
	// fences the primary.
	Epoch uint64
	// Cursor is the last primary sequence number the follower has
	// applied or been watermarked past (0 = from the beginning).
	Cursor uint64
}

// acceptMsg is the primary's reply to a subscribe.
type acceptMsg struct {
	// Epoch is the primary's fencing epoch. A follower with a higher
	// one refuses the stream; a follower with a lower one adopts it.
	Epoch uint64
	// Snapshot announces a synthesized full-state transfer before live
	// tailing (the follower's cursor was compacted away).
	Snapshot bool
	// Err, when non-empty, refuses the subscription.
	Err string
}

// catchupDoneMsg ends a synthesized full-state transfer.
type catchupDoneMsg struct {
	// Cut is the primary sequence number the snapshot covers; live
	// tailing resumes from it.
	Cut uint64
	// Nonce is the primary's challenge-nonce high-water mark at the
	// cut.
	Nonce uint64
}

// A record message carries one WAL record payload under the primary's
// sequence number, or under 0 for a synthesized catch-up record (those
// carry state, not log position; the position arrives in catchupDone).
// A watermark restates the position the follower's cursor has reached
// and is the primary→follower heartbeat; an ack is the follower→primary heartbeat, carrying the
// cursor it has applied and persisted through. All three are built and
// parsed in place, without a message struct.

// appendRecord appends a record frame.
func appendRecord(b []byte, seq uint64, payload []byte) []byte {
	b = wire.AppendHeader(b, kindRecord, 8+len(payload))
	b = binary.BigEndian.AppendUint64(b, seq)
	return append(b, payload...)
}

// appendSeq appends a watermark or ack frame.
func appendSeq(b []byte, kind byte, seq uint64) []byte {
	return binary.BigEndian.AppendUint64(wire.AppendHeader(b, kind, 8), seq)
}

// append appends the subscribe frame, refusing a message its decoder
// would reject.
func (m *subscribeMsg) append(b []byte) ([]byte, error) {
	if len(m.FollowerID) > maxStringLen {
		return nil, fmt.Errorf("replica: unsendable subscribe (%d-byte id)", len(m.FollowerID))
	}
	b = wire.AppendHeader(b, kindSubscribe, 1+8+8+4+4+2+len(m.FollowerID))
	b = append(b, protocolVersion)
	b = binary.BigEndian.AppendUint64(b, m.Epoch)
	b = binary.BigEndian.AppendUint64(b, m.Cursor)
	b = binary.BigEndian.AppendUint32(b, 0) // numShards
	b = binary.BigEndian.AppendUint32(b, allShards)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.FollowerID)))
	return append(b, m.FollowerID...), nil
}

// append appends the accept frame. An over-long error is cut to the
// bound rather than left unsendable.
func (m *acceptMsg) append(b []byte) []byte {
	msg := m.Err[:min(len(m.Err), maxStringLen)]
	var flags byte
	if m.Snapshot {
		flags = acceptSnapshot
	}
	b = wire.AppendHeader(b, kindAccept, 8+1+2+len(msg))
	b = binary.BigEndian.AppendUint64(b, m.Epoch)
	b = append(b, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(len(msg)))
	return append(b, msg...)
}

// append appends the catchupDone frame.
func (m catchupDoneMsg) append(b []byte) []byte {
	b = wire.AppendHeader(b, kindCatchupDone, 16)
	b = binary.BigEndian.AppendUint64(b, m.Cut)
	return binary.BigEndian.AppendUint64(b, m.Nonce)
}

// done reports an overrun or trailing bytes in a body of kind.
func done(r *wire.Cursor, kind string) error {
	if !r.OK() || r.Len() != 0 {
		return fmt.Errorf("%w: %s", errMalformed, kind)
	}
	return nil
}

// decodeSubscribe parses a subscribe body. Nothing is allocated for the
// id before the bytes it claims have been seen.
func decodeSubscribe(p []byte) (*subscribeMsg, error) {
	r := wire.NewCursor(p)
	if v := r.U8(); r.OK() && v != protocolVersion {
		return nil, fmt.Errorf("replica: subscribe is protocol version %d, this primary speaks protocol version %d", v, protocolVersion)
	}
	m := &subscribeMsg{Epoch: r.U64(), Cursor: r.U64()}
	r.U32() // numShards, ignored
	if count := r.U32(); r.OK() && count != allShards {
		return nil, fmt.Errorf("%w (it lists %d shards)", errShardSubset, count)
	}
	n := int(r.U16())
	if n > maxStringLen {
		return nil, fmt.Errorf("%w: %d-byte follower id", errMalformed, n)
	}
	m.FollowerID = string(r.Bytes(n))
	return m, done(&r, "subscribe")
}

// decodeAccept parses an accept body.
func decodeAccept(p []byte) (*acceptMsg, error) {
	r := wire.NewCursor(p)
	m := &acceptMsg{Epoch: r.U64()}
	flags := r.U8()
	if flags&^acceptSnapshot != 0 {
		return nil, fmt.Errorf("%w: accept flags %#x", errMalformed, flags)
	}
	m.Snapshot = flags == acceptSnapshot
	n := int(r.U16())
	if n > maxStringLen {
		return nil, fmt.Errorf("%w: %d-byte accept error", errMalformed, n)
	}
	m.Err = string(r.Bytes(n))
	return m, done(&r, "accept")
}

// decodeRecordMsg parses a record body. The payload aliases p.
func decodeRecordMsg(p []byte) (uint64, []byte, error) {
	if len(p) <= 8 {
		return 0, nil, fmt.Errorf("%w: %d-byte record", errMalformed, len(p))
	}
	return binary.BigEndian.Uint64(p), p[8:], nil
}

// decodeSeq parses a watermark or ack body.
func decodeSeq(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: %d-byte watermark or ack", errMalformed, len(p))
	}
	return binary.BigEndian.Uint64(p), nil
}

// decodeCatchupDone parses a catchupDone body.
func decodeCatchupDone(p []byte) (catchupDoneMsg, error) {
	r := wire.NewCursor(p)
	m := catchupDoneMsg{Cut: r.U64(), Nonce: r.U64()}
	return m, done(&r, "catchupDone")
}

// Meta is a node's persisted replication identity: the fencing epoch it
// last participated at and, for a follower, the cursor into the
// primary's sequence space it has applied through. One file per
// followed primary.
type Meta struct {
	Epoch  uint64 `json:"epoch"`
	Cursor uint64 `json:"cursor"`
}

// LoadMeta reads a meta file; a missing file is a zero Meta (fresh
// follower), not an error.
func LoadMeta(path string) (Meta, error) {
	var m Meta
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return m, fmt.Errorf("replica: read meta: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("replica: decode meta %s: %w", path, err)
	}
	return m, nil
}

// SaveMeta persists a meta file atomically and durably: the new contents
// are written to a temporary file of their own beside it and fsynced
// before they are renamed over the old, and the directory is fsynced
// after, so a crash at any point leaves either the previous cursor or the
// new one — re-delivery from an old cursor is safe, a cursor ahead of
// applied state is not — and concurrent savers cannot tear each other's
// file. Which of two concurrent saves lands last is up to their caller
// (Follower orders its own).
func SaveMeta(path string, m Meta) error {
	return saveMeta(path, m, os.Rename)
}

// saveMeta is SaveMeta with the rename step injectable, the seam the
// interleaving test holds writers at.
func saveMeta(path string, m Meta, rename func(oldpath, newpath string) error) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("replica: write meta: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("replica: write meta: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("replica: sync meta: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("replica: write meta: %w", err)
	}
	if err := rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("replica: rename meta: %w", err)
	}
	return durable.SyncDir(dir)
}
