package obs

import (
	"sync"
	"time"
)

// Trace event kinds. The scheduler emits the sched.* lifecycle of a
// search's queue slot; backends emit the search.* execution events.
const (
	// KindEnqueue: the search was admitted to the scheduler queue.
	KindEnqueue = "sched.enqueue"
	// KindReject: the admission queue was full; the search was shed.
	KindReject = "sched.reject"
	// KindDequeue: a worker picked the search up (Dur = queue wait).
	KindDequeue = "sched.dequeue"
	// KindDiscard: the search left the queue unserved — cancelled while
	// queued, or failed with ErrClosed at shutdown (see Detail).
	KindDiscard = "sched.discard"
	// KindDone: the worker finished the search (Detail = outcome,
	// Dur = backend service time).
	KindDone = "sched.done"
	// KindSearchStart: a backend began executing the search.
	KindSearchStart = "search.start"
	// KindShell: a backend finished one Hamming shell (Depth = distance,
	// N = seeds covered, Dur = modelled/measured shell time).
	KindShell = "search.shell"
	// KindSearchEnd: a backend returned (Detail = found/not-found/
	// timed-out, Depth = early-exit distance, N = hashes executed).
	KindSearchEnd = "search.end"
	// KindInline: the request resolved on the inline host fast path
	// without ever entering a scheduler queue (Depth = inline budget,
	// N = seeds covered).
	KindInline = "search.inline"
	// KindShed: admission control evicted this queued search to make
	// room for a strictly better one (Detail names the shed rule).
	KindShed = "sched.shed"
)

// TraceEvent is one step in a search's life. Fields beyond Time and Kind
// are kind-specific; unused ones are zero and omitted from JSON.
type TraceEvent struct {
	// Time is when the event happened; Emit stamps it when zero.
	Time time.Time `json:"time"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Search correlates the events of one scheduled search (the
	// scheduler stamps Task.TraceID).
	Search uint64 `json:"search,omitempty"`
	// Backend names the engine executing the search.
	Backend string `json:"backend,omitempty"`
	// Detail carries a kind-specific label (outcome, discard reason).
	Detail string `json:"detail,omitempty"`
	// N is a kind-specific count: hashes attempted, seeds covered.
	N uint64 `json:"n,omitempty"`
	// Depth is a Hamming distance: shell being searched, or the
	// early-exit depth at which the match was found.
	Depth int `json:"depth,omitempty"`
	// Dur is a kind-specific duration: queue wait, shell time, service.
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Err is the error text when the step failed.
	Err string `json:"err,omitempty"`
}

// TraceSink receives trace events. Implementations must be safe for
// concurrent use; Emit is called on scheduler and backend hot paths, so
// it should be cheap and must not block.
type TraceSink interface {
	Emit(TraceEvent)
}

// Emit sends ev to sink if it is non-nil, stamping ev.Time when unset.
// The nil check lives here so instrumentation sites stay one line.
func Emit(sink TraceSink, ev TraceEvent) {
	if sink == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	sink.Emit(ev)
}

// Ring is a fixed-capacity TraceSink keeping the most recent events —
// the flight recorder behind the debug listener's /trace endpoint.
type Ring struct {
	mu    sync.Mutex
	buf   []TraceEvent
	next  int
	count uint64
}

// NewRing returns a ring holding the last capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]TraceEvent, 0, capacity)}
}

// Emit implements TraceSink.
func (r *Ring) Emit(ev TraceEvent) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % len(r.buf)
	}
	r.count++
	r.mu.Unlock()
}

// Total returns the number of events ever emitted (including evicted).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Snapshot returns the retained events, oldest first.
func (r *Ring) Snapshot() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// MultiSink fans each event out to every sink in order.
type MultiSink []TraceSink

// Emit implements TraceSink.
func (m MultiSink) Emit(ev TraceEvent) {
	for _, s := range m {
		if s != nil {
			s.Emit(ev)
		}
	}
}
