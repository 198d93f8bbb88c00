package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/obs"
)

// The traced pass observes one node from outside, through the seams the
// assembled server already has: the listener it is served on, the journal
// its stores write through, its trace ring, and the client's dialer. The
// wrappers are installed on every node the benchmark builds and do
// nothing until the recorder is switched on, so the untraced segments run
// the same code as the traced pass minus the timestamps.

// ioSpan is one timed interval, in nanoseconds since the recorder epoch.
type ioSpan struct {
	name       string
	start, end int64
}

func (s ioSpan) dur() int64 { return s.end - s.start }

// recorder collects the wrappers' observations while on.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu      sync.Mutex
	conns   []*serverConn // in accept order
	journal []ioSpan
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// tracedListener hands the server wrapped connections while the recorder
// is on.
type tracedListener struct {
	net.Listener
	rec *recorder
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.rec.on.Load() {
		return c, err
	}
	sc := &serverConn{Conn: c, rec: l.rec, accepted: l.rec.now()}
	l.rec.mu.Lock()
	l.rec.conns = append(l.rec.conns, sc)
	l.rec.mu.Unlock()
	return sc, nil
}

// serverConn is the server's end of one authentication, seen from the
// socket: when it was accepted and closed, when the handler sat in Read
// and Write, and the exact byte count.
type serverConn struct {
	net.Conn
	rec *recorder

	mu       sync.Mutex // the handler and its disconnect watchdog both read
	accepted int64
	closed   int64
	reads    []ioSpan // reads that returned data (the handler's frame reads)
	writes   []ioSpan
	bytes    int
}

func (c *serverConn) Read(p []byte) (int, error) {
	start := c.rec.now()
	n, err := c.Conn.Read(p)
	end := c.rec.now()
	c.mu.Lock()
	c.bytes += n
	// The watchdog's read ends empty when the session is torn down; only
	// reads that delivered bytes kept the handler waiting.
	if n > 0 {
		c.reads = append(c.reads, ioSpan{name: "netproto.read_wait", start: start, end: end})
	}
	c.mu.Unlock()
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	start := c.rec.now()
	n, err := c.Conn.Write(p)
	end := c.rec.now()
	c.mu.Lock()
	c.bytes += n
	c.writes = append(c.writes, ioSpan{name: "netproto.write", start: start, end: end})
	c.mu.Unlock()
	return n, err
}

func (c *serverConn) Close() error {
	err := c.Conn.Close()
	c.mu.Lock()
	if c.closed == 0 {
		c.closed = c.rec.now()
	}
	c.mu.Unlock()
	return err
}

// timedJournal wraps the durable state's core.Journal; installed with
// SetJournal on the three stores before the node serves.
type timedJournal struct {
	next core.Journal
	rec  *recorder
}

func (j timedJournal) timed(name string, f func() error) error {
	if !j.rec.on.Load() {
		return f()
	}
	start := j.rec.now()
	err := f()
	end := j.rec.now()
	j.rec.mu.Lock()
	j.rec.journal = append(j.rec.journal, ioSpan{name: name, start: start, end: end})
	j.rec.mu.Unlock()
	return err
}

func (j timedJournal) ImagePut(id core.ClientID, sealed []byte) error {
	return j.timed("durable.image_put", func() error { return j.next.ImagePut(id, sealed) })
}
func (j timedJournal) ImageDelete(id core.ClientID) error {
	return j.timed("durable.image_delete", func() error { return j.next.ImageDelete(id) })
}
func (j timedJournal) RAKeyUpdate(id core.ClientID, key []byte) error {
	return j.timed("durable.ra_update", func() error { return j.next.RAKeyUpdate(id, key) })
}
func (j timedJournal) RACertUpdate(id core.ClientID, cert *core.Certificate) error {
	return j.timed("durable.ra_cert", func() error { return j.next.RACertUpdate(id, cert) })
}
func (j timedJournal) RADelete(id core.ClientID) error {
	return j.timed("durable.ra_delete", func() error { return j.next.RADelete(id) })
}
func (j timedJournal) SessionOpen(id core.ClientID, ch core.Challenge) error {
	return j.timed("durable.session_open", func() error { return j.next.SessionOpen(id, ch) })
}
func (j timedJournal) SessionClose(id core.ClientID) error {
	return j.timed("durable.session_close", func() error { return j.next.SessionClose(id) })
}

// clientTrace is the generator's view of one traced request.
type clientTrace struct {
	start, end               int64
	dialStart, dialEnd       int64
	respondStart, respondEnd int64
	writes                   int // conn.Write calls the client made
}

// span is one row of the span file.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// selfTime is a span's duration minus the part of its interval that the
// child spans cover (children clipped to the parent, overlaps counted
// once).
func selfTime(parent ioSpan, children []ioSpan) int64 {
	clipped := make([]ioSpan, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, edge := int64(0), parent.start
	for _, c := range clipped {
		if c.end <= edge {
			continue
		}
		covered += c.end - max(c.start, edge)
		edge = c.end
	}
	return parent.dur() - covered
}

// requestSpans is everything recorded for one traced request, already
// matched: concurrency 1 means every server-side event between a
// request's start and end belongs to it, and the i-th accepted
// connection is the i-th request's.
type requestSpans struct {
	client  clientTrace
	conn    ioSpan
	reads   []ioSpan
	writes  []ioSpan
	bytes   int
	journal []ioSpan
	inline  []ioSpan // inline-host search.end events
	queue   []ioSpan // sched.dequeue events
	service []ioSpan // sched.done events
	search  []ioSpan // backend search.end events
	events  int      // trace-ring events of any kind
}

// eventSpan turns a trace event stamped at its end, carrying its
// duration, into an interval on the recorder's clock.
func (r *recorder) eventSpan(name string, ev obs.TraceEvent) ioSpan {
	end := int64(ev.Time.Sub(r.epoch))
	return ioSpan{name: name, start: end - int64(ev.Dur), end: end}
}

// match assembles per-request records from the traced pass: clients in
// request order, the recorder's connections in accept order, and journal
// spans and ring events by the request window they fall into.
func (r *recorder) match(clients []clientTrace, events []obs.TraceEvent) []requestSpans {
	r.mu.Lock()
	conns, journal := r.conns, r.journal
	r.mu.Unlock()

	out := make([]requestSpans, len(clients))
	for i, c := range clients {
		out[i].client = c
		if i < len(conns) {
			sc := conns[i]
			sc.mu.Lock()
			out[i].conn = ioSpan{name: "netproto.conn", start: sc.accepted, end: sc.closed}
			out[i].reads, out[i].writes, out[i].bytes = sc.reads, sc.writes, sc.bytes
			sc.mu.Unlock()
		}
	}
	// window returns the request whose [start, end] holds t, or -1.
	window := func(t int64) int {
		i := sort.Search(len(clients), func(i int) bool { return clients[i].end >= t })
		if i < len(clients) && clients[i].start <= t {
			return i
		}
		return -1
	}
	for _, j := range journal {
		if i := window(j.end); i >= 0 {
			out[i].journal = append(out[i].journal, j)
		}
	}
	for _, ev := range events {
		i := window(int64(ev.Time.Sub(r.epoch)))
		if i < 0 {
			continue
		}
		out[i].events++
		switch {
		case ev.Kind == obs.KindSearchEnd && ev.Backend == core.InlineName:
			out[i].inline = append(out[i].inline, r.eventSpan("core.inline", ev))
		case ev.Kind == obs.KindSearchEnd:
			out[i].search = append(out[i].search, r.eventSpan("cpu.search", ev))
		case ev.Kind == obs.KindDequeue:
			out[i].queue = append(out[i].queue, r.eventSpan("sched.queue", ev))
		case ev.Kind == obs.KindDone:
			out[i].service = append(out[i].service, r.eventSpan("sched.service", ev))
		}
	}
	return out
}

// spans lists one request's rows for the span file, parents by name.
func (q requestSpans) spans(req int) []span {
	row := func(s ioSpan, name, parent string) span {
		return span{Req: req, Name: name, Start: s.start, End: s.end, Parent: parent}
	}
	c := q.client
	out := []span{
		row(ioSpan{start: c.start, end: c.end}, "request", ""),
		row(ioSpan{start: c.dialStart, end: c.dialEnd}, "client.dial", "request"),
		row(q.conn, "netproto.conn", "request"),
	}
	for _, s := range q.reads {
		out = append(out, row(s, s.name, "netproto.conn"))
	}
	// The client answers the challenge while the server sits in the
	// digest read, so the response is that wait's child.
	out = append(out, row(ioSpan{start: c.respondStart, end: c.respondEnd}, "client.respond", "netproto.read_wait"))
	for _, group := range [][]ioSpan{q.writes, q.journal, q.inline, q.queue, q.service} {
		for _, s := range group {
			out = append(out, row(s, s.name, "netproto.conn"))
		}
	}
	for _, s := range q.search {
		out = append(out, row(s, s.name, "sched.service"))
	}
	return out
}

// budget is the mean per-request time, in nanoseconds, of every named
// span's self time over a traced pass, plus the two remainders no span
// names: the connection's self time (the CA and frame handling between
// the named calls) and the request's self time (client-side work outside
// dial and the server's connection).
type budget struct {
	n          int
	latency    float64
	dial       float64
	respond    float64
	readWait   float64 // total, client.respond included
	write      float64
	conn       float64
	journal    map[string]float64
	journalAll []float64 // every journal call, ns
	inline     float64
	queue      float64
	service    float64 // total, cpu.search included
	search     float64
	caSelf     float64
	reqSelf    float64
	calls      float64 // conn.Write calls, both ends
	bytes      float64 // bytes through the server's socket, both ways
	events     float64
}

func sumDur(spans []ioSpan) (total int64) {
	for _, s := range spans {
		total += s.dur()
	}
	return total
}

func newBudget(reqs []requestSpans) budget {
	b := budget{n: len(reqs), journal: map[string]float64{}}
	if b.n == 0 {
		return b
	}
	for _, q := range reqs {
		c := q.client
		request := ioSpan{start: c.start, end: c.end}
		dial := ioSpan{start: c.dialStart, end: c.dialEnd}
		b.latency += float64(request.dur())
		b.dial += float64(dial.dur())
		b.respond += float64(c.respondEnd - c.respondStart)
		b.readWait += float64(sumDur(q.reads))
		b.write += float64(sumDur(q.writes))
		b.conn += float64(q.conn.dur())
		for _, j := range q.journal {
			b.journal[j.name] += float64(j.dur())
			b.journalAll = append(b.journalAll, float64(j.dur()))
		}
		b.inline += float64(sumDur(q.inline))
		b.queue += float64(sumDur(q.queue))
		b.service += float64(sumDur(q.service))
		b.search += float64(sumDur(q.search))
		b.calls += float64(len(q.writes) + c.writes)
		b.bytes += float64(q.bytes)
		b.events += float64(q.events)

		children := append([]ioSpan(nil), q.reads...)
		for _, group := range [][]ioSpan{q.writes, q.journal, q.inline, q.queue, q.service} {
			children = append(children, group...)
		}
		// The server closes its end after the client already holds the
		// result; only the part of the connection inside the request is
		// on the request's path.
		conn := q.conn
		conn.end = min(conn.end, request.end)
		b.caSelf += float64(selfTime(conn, children))
		b.reqSelf += float64(selfTime(request, []ioSpan{dial, conn}))
	}
	n := float64(b.n)
	for _, v := range []*float64{&b.latency, &b.dial, &b.respond, &b.readWait, &b.write, &b.conn,
		&b.inline, &b.queue, &b.service, &b.search, &b.caSelf, &b.reqSelf, &b.calls, &b.bytes, &b.events} {
		*v /= n
	}
	for k := range b.journal {
		b.journal[k] /= n
	}
	sort.Float64s(b.journalAll)
	return b
}

// writeSpans writes the traced pass's span file.
func writeSpans(dir, workload string, reqs []requestSpans) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var rows []span
	for i, q := range reqs {
		rows = append(rows, q.spans(i)...)
	}
	path := filepath.Join(dir, "trace-"+strings.ReplaceAll(workload, "/", "_")+".json")
	data, err := json.Marshal(rows)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
