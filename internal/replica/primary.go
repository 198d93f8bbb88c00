package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"rbcsalted/internal/durable"
	"rbcsalted/internal/wire"
)

// FollowerStatus is one subscriber in the primary's liveness table.
type FollowerStatus struct {
	ID      string
	Addr    string
	Acked   uint64    // cursor the follower has acked
	LastAck time.Time // when the last ack (or the subscribe) arrived
}

// Primary serves this node's WAL to subscribing followers.
type Primary struct {
	// State is the durable state whose journal is streamed.
	State *durable.State
	// Epoch is the fencing epoch this primary serves at (from its meta
	// file). Subscribers carrying a higher epoch fence it.
	Epoch uint64
	// Heartbeat paces watermark messages on an idle stream (default
	// 1 s; tests shorten it).
	Heartbeat time.Duration
	// ReapAfter bounds follower silence: a subscriber that has not
	// acked for this long is disconnected and must resubscribe
	// (default 5× Heartbeat). A dead follower's connection may never
	// error on its own, and holding it would pin its stream forever.
	ReapAfter time.Duration
	// OnFenced, when set, fires once when a subscriber fences this
	// primary (the server uses it to stand down).
	OnFenced func(epoch uint64)

	acceptor wire.Acceptor
	mu       sync.Mutex
	fenced   bool
	fencedBy uint64
	subs     map[*subscriber]struct{}
}

type subscriber struct {
	id   string
	addr string

	mu      sync.Mutex
	acked   uint64
	lastAck time.Time
}

func (s *subscriber) noteAck(cursor uint64) {
	s.mu.Lock()
	if cursor > s.acked {
		s.acked = cursor
	}
	s.lastAck = time.Now()
	s.mu.Unlock()
}

func (p *Primary) heartbeat() time.Duration {
	if p.Heartbeat > 0 {
		return p.Heartbeat
	}
	return time.Second
}

func (p *Primary) reapAfter() time.Duration {
	if p.ReapAfter > 0 {
		return p.ReapAfter
	}
	return 5 * p.heartbeat()
}

// Serve accepts subscribers until the listener closes (wire.Acceptor).
// On a primary that has already been closed it closes ln and returns nil.
func (p *Primary) Serve(ln net.Listener) error {
	return p.acceptor.Serve(ln, p.handle)
}

// Close stops the listener (Serve's, or the one a later Serve is given)
// and every subscriber stream, and waits for the streams to end: the
// Acceptor closes each stream's connection, which fails its writes and
// ends its ack reader, whose exit cancels the stream.
func (p *Primary) Close() error {
	return p.acceptor.Close()
}

// Fenced reports whether a higher-epoch subscriber has fenced this
// primary, and by which epoch.
func (p *Primary) Fenced() (bool, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fenced, p.fencedBy
}

// Followers snapshots the liveness table, sorted by follower ID.
func (p *Primary) Followers() []FollowerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FollowerStatus, 0, len(p.subs))
	for s := range p.subs {
		s.mu.Lock()
		st := FollowerStatus{ID: s.id, Addr: s.addr, Acked: s.acked, LastAck: s.lastAck}
		s.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// fence marks the primary superseded and fires OnFenced once.
func (p *Primary) fence(epoch uint64) {
	p.mu.Lock()
	first := !p.fenced
	p.fenced = true
	if epoch > p.fencedBy {
		p.fencedBy = epoch
	}
	hook := p.OnFenced
	p.mu.Unlock()
	if first && hook != nil {
		hook(epoch)
	}
}

// streamBuffer sizes a stream's batching at both ends: a live stream
// writes once per wake-up (under SyncAlways, once per barrier), a backlog
// or a catch-up transfer in writes of this size, and the follower reads
// it in chunks as large.
const streamBuffer = 64 << 10

// handle runs one subscriber stream.
func (p *Primary) handle(conn net.Conn) {
	defer conn.Close()

	refuse := func(msg string) {
		_, _ = conn.Write((&acceptMsg{Epoch: p.Epoch, Err: msg}).append(nil))
	}

	r := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(p.reapAfter()))
	kind, body, err := wire.Read(r, maxReplicaFrame)
	if err != nil || kind != kindSubscribe {
		refuse("expected subscribe")
		return
	}
	sub, err := decodeSubscribe(body)
	if err != nil {
		refuse(err.Error())
		return
	}
	if sub.Epoch > p.Epoch {
		// A promotion happened elsewhere: this primary is history.
		p.fence(sub.Epoch)
		refuse(fmt.Sprintf("fenced: follower at epoch %d, primary at %d", sub.Epoch, p.Epoch))
		return
	}
	if fenced, by := p.Fenced(); fenced {
		refuse(fmt.Sprintf("fenced by epoch %d", by))
		return
	}

	s := &subscriber{id: sub.FollowerID, addr: conn.RemoteAddr().String(), lastAck: time.Now()}
	p.mu.Lock()
	if p.subs == nil {
		p.subs = make(map[*subscriber]struct{})
	}
	p.subs[s] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.subs, s)
		p.mu.Unlock()
	}()

	// Acks arrive on their own goroutine, and a subscriber silent past
	// ReapAfter is reaped here: any read error tears the stream down.
	// Closing the connection, not just cancelling the stream context, is
	// what frees a stream blocked writing to a peer that stopped reading.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		defer cancel()
		defer conn.Close()
		for {
			conn.SetReadDeadline(time.Now().Add(p.reapAfter()))
			kind, body, err := wire.Read(r, maxReplicaFrame)
			if err != nil || kind != kindAck {
				return
			}
			cursor, err := decodeSeq(body)
			if err != nil {
				return
			}
			s.noteAck(cursor)
		}
	}()
	conn.SetWriteDeadline(time.Time{})

	_ = p.stream(ctx, bufio.NewWriterSize(conn, streamBuffer), sub.Cursor)
}

// stream ships records from cursor onward, switching to a synthesized
// full-state transfer whenever the cursor is not in the log: compaction
// outran it, or it is past the log's end because this node lost a tail
// the subscriber had already ingested. Messages
// are buffered in w; tailLoop flushes them whenever the log has nothing
// more ready.
func (p *Primary) stream(ctx context.Context, w *bufio.Writer, cursor uint64) error {
	accepted := false
	accept := func(m *acceptMsg) error {
		accepted = true
		_, err := w.Write(m.append(w.AvailableBuffer()))
		return err
	}
	for {
		tail, err := p.State.TailFrom(cursor)
		if errors.Is(err, durable.ErrTruncated) {
			if !accepted {
				if err := accept(&acceptMsg{Epoch: p.Epoch, Snapshot: true}); err != nil {
					return err
				}
			}
			cursor, err = p.sendSnapshot(w)
			if err != nil {
				return err
			}
			continue
		}
		if err != nil {
			if !accepted {
				// Best effort: the stream ends with err either way.
				_ = accept(&acceptMsg{Epoch: p.Epoch, Err: err.Error()})
				_ = w.Flush()
			}
			return err
		}
		if !accepted {
			if err := accept(&acceptMsg{Epoch: p.Epoch}); err != nil {
				tail.Close()
				return err
			}
		}
		err = p.tailLoop(ctx, w, tail, cursor)
		tail.Close()
		if !errors.Is(err, durable.ErrTruncated) {
			return err
		}
		// Compaction outran the tail mid-stream (slow follower): fall
		// back to a fresh snapshot transfer and resume from its cut.
		cursor, err = p.sendSnapshot(w)
		if err != nil {
			return err
		}
	}
}

// tailLoop is live streaming: every record as journaled, without the
// primary decoding it, and a watermark for idle heartbeats. Records are
// batched while the log has more ready and flushed in one write when it
// has not, so a live stream costs one write per wake-up — under
// SyncAlways, per barrier, which carries a request's records together.
//
// Under SyncAlways a record journaled but not yet committed (its
// mutator's barrier still to come) stays invisible until some barrier
// covers it, so an idle heartbeat takes one.
func (p *Primary) tailLoop(ctx context.Context, w *bufio.Writer, tail *durable.Tail, cursor uint64) error {
	watermark := cursor // highest seq streamed
	idle := time.NewTimer(p.heartbeat())
	defer idle.Stop()
	for {
		if !tail.Ready() {
			if err := w.Flush(); err != nil {
				return err
			}
			idle.Reset(p.heartbeat())
			select {
			case <-tail.Wait():
			case <-idle.C:
				// Idle: make what is pending visible, and heartbeat the
				// current position.
				if err := p.State.Commit(); err != nil {
					return err
				}
				if _, err := w.Write(appendSeq(w.AvailableBuffer(), kindWatermark, watermark)); err != nil {
					return err
				}
				continue
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		seq, payload, err := tail.Next(ctx)
		if err != nil {
			return err
		}
		watermark = seq
		if _, err := w.Write(appendRecord(w.AvailableBuffer(), seq, payload)); err != nil {
			return err
		}
	}
}

// sendSnapshot ships the state as the run of records a snapshot holds
// (durable.State.Records) and returns the sequence cut live tailing
// resumes from. Records are ahead of the cut, never behind it, and every
// op is an idempotent overwrite, so one present in both the transfer and
// the tailed suffix converges.
func (p *Primary) sendSnapshot(w *bufio.Writer) (uint64, error) {
	cut, nonce, records := p.State.Records()
	for rec := range records {
		payload, err := rec.Encode()
		if err != nil {
			return 0, err
		}
		if _, err := w.Write(appendRecord(w.AvailableBuffer(), 0, payload)); err != nil {
			return 0, err
		}
	}
	if _, err := w.Write(catchupDoneMsg{Cut: cut, Nonce: nonce}.append(w.AvailableBuffer())); err != nil {
		return 0, err
	}
	return cut, nil
}
