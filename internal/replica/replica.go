// Package replica streams the durable WAL from a primary CA node to
// followers, so a follower holds a byte-for-byte equivalent copy of the
// primary's client state and can be promoted when the primary dies.
//
// The unit of shipping is the WAL record payload (internal/durable):
// every journaled op is an idempotent overwrite or delete, so a
// follower can re-sequence records into its OWN log (durable.Ingest)
// and re-delivery after a reconnect converges instead of corrupting.
// The follower tracks its position in the primary's sequence space as a
// persisted cursor; the primary's watermark messages advance the cursor
// past records that were filtered out by sharding and double as
// heartbeats.
//
// Catch-up is two-phase. A follower whose cursor still lies inside the
// primary's log gets the suffix via durable.TailFrom. A follower whose
// cursor was compacted away (durable.ErrTruncated) gets a synthesized
// full-state transfer instead: the primary encodes its store snapshots
// as ordinary WAL records (sealed images, RA keys, certificates, open
// sessions) and the follower reconciles — applying every record and
// deleting local entries the transfer did not mention — then resumes
// live tailing from the snapshot's sequence cut.
//
// Failover safety is epoch fencing. Every replication group has a
// fencing epoch, persisted in each node's meta file; Promote advances
// it. A subscribe carrying a higher epoch than the primary's proves a
// promotion happened elsewhere, so the primary fences itself (stops
// accepting subscribers, fires OnFenced) rather than split-brain; a
// follower offered a stream by a lower-epoch primary refuses it for the
// same reason. Promotion also bumps the challenge-nonce high-water mark
// by PromoteNonceSlack, so nonces issued by the new primary can never
// collide with ones the dead primary issued but had not replicated —
// the same argument durable recovery makes after a torn tail.
//
// The wire protocol is gob over length-prefixed frames: self-describing
// messages on a stream with explicit boundaries. Liveness is
// heartbeat-by-traffic: watermarks and acks flow even when no record
// does, so a peer silent for longer than its timeout is dead and is
// dropped.
package replica

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rbcsalted/internal/durable"
)

// PromoteNonceSlack is added to the nonce high-water mark on every
// promotion. The dead primary may have issued nonces (SessionOpen
// records) that never reached the follower; reissuing one would
// reproduce its address map and make a sniffed digest replayable.
// Mirrors the slack durable recovery applies after a crash.
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

// Message kinds on the replication stream.
const (
	kindSubscribe byte = iota + 1
	kindAccept
	kindRecord
	kindCatchupDone
	kindWatermark
	kindAck
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
	// NumShards is the shard count the follower routes with; it must
	// match the primary's (0 accepts the primary's).
	NumShards int
	// Shards selects which shards to stream (nil = all). Cross-
	// replicating serving nodes subscribe to exactly the shards the
	// primary owns, which is what keeps records from echoing around
	// the mesh: an ingested foreign-shard record is never re-streamed,
	// because no subscriber asks this node for that shard.
	Shards []int
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

// recordMsg carries one WAL record payload. Seq is the primary's
// sequence number, or 0 for a synthesized catch-up record (those carry
// state, not log position; the position arrives in catchupDone).
type recordMsg struct {
	Seq     uint64
	Payload []byte
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

// watermarkMsg advances the follower's cursor without carrying a
// record (sharding filtered the records out) and doubles as the
// primary→follower heartbeat.
type watermarkMsg struct {
	Seq uint64
}

// ackMsg is the follower→primary heartbeat: the cursor it has applied
// and persisted through.
type ackMsg struct {
	Cursor uint64
}

// maxReplicaFrame bounds one message: the largest legitimate payload is
// a sealed PUF image record (durable caps blobs at 1<<24).
const maxReplicaFrame = 1 << 25

// writeMsg frames and sends one gob-encoded message.
func writeMsg(w io.Writer, kind byte, v any) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(v); err != nil {
		return fmt.Errorf("replica: encode: %w", err)
	}
	if body.Len()+1 > maxReplicaFrame {
		return fmt.Errorf("replica: frame too large (%d bytes)", body.Len())
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(body.Len()+1))
	hdr[4] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body.Bytes())
	return err
}

// readMsg receives one framed message and decodes it into the value
// selected by its kind.
func readMsg(r io.Reader) (byte, any, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxReplicaFrame {
		return 0, nil, fmt.Errorf("replica: invalid frame length %d", n)
	}
	buf, err := readBody(r, int(n))
	if err != nil {
		return 0, nil, err
	}
	dec := gob.NewDecoder(bytes.NewReader(buf[1:]))
	switch buf[0] {
	case kindSubscribe:
		var m subscribeMsg
		return buf[0], &m, dec.Decode(&m)
	case kindAccept:
		var m acceptMsg
		return buf[0], &m, dec.Decode(&m)
	case kindRecord:
		var m recordMsg
		return buf[0], &m, dec.Decode(&m)
	case kindCatchupDone:
		var m catchupDoneMsg
		return buf[0], &m, dec.Decode(&m)
	case kindWatermark:
		var m watermarkMsg
		return buf[0], &m, dec.Decode(&m)
	case kindAck:
		var m ackMsg
		return buf[0], &m, dec.Decode(&m)
	default:
		return 0, nil, fmt.Errorf("replica: unknown message kind %d", buf[0])
	}
}

// bodyChunk is the most readBody allocates before any payload byte has
// arrived. It exceeds every record frame a running stream sends (a
// sealed enrolment image is a few KB), so those cost one allocation.
const bodyChunk = 64 << 10

// readBody reads an n-byte frame body. n is the peer's claim, not yet
// its bytes, so the buffer grows (at most doubling) only as bytes
// arrive: a bare length header followed by EOF costs bodyChunk, not the
// n bytes it announced. A body cut short is io.ErrUnexpectedEOF.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, bodyChunk))
	read := 0
	for {
		if _, err := io.ReadFull(r, buf[read:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		read = len(buf)
		if read == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-read, read))...)
	}
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
