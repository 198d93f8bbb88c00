package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	rbc "rbcsalted"
	"rbcsalted/internal/core"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/netproto"
)

const (
	// backlogBound bounds the open loop: an arrival that finds this many
	// seconds' worth of arrivals still in flight is shed and counted as
	// failed, so a server that stops answering shows as a failure share,
	// not an unbounded backlog. One second clears the disk stalls seen on
	// a shared volume (a 0.32 s bound shed 21 of 8000 requests in one run
	// of twenty); a shorter stall is charged to latency instead, which is
	// timed from each request's due time.
	backlogBound = 1.0
	// localAddrs is how many 127.0.0.x source addresses the dialer
	// rotates over. The server serves one authentication per connection,
	// so a run leaves far more sockets in TIME_WAIT than one address has
	// ephemeral ports; spreading them keeps the generator independent of
	// tcp_tw_reuse.
	localAddrs = 32
)

// Why a request failed; okay is the zero value.
const (
	okay = iota
	failTransport
	failServer
	failDenied
	failWrongKey
	failShed
	failKinds
)

var failNames = [failKinds]string{"ok", "transport", "server-error", "not-authenticated", "wrong-key", "shed"}

// outcome is one request's result as the generator saw it.
type outcome struct {
	latency time.Duration
	fail    int
	err     error
}

// generator drives one cluster through rbc.Dial. Each worker owns a
// client handle, so the dialer can hand the connection of the worker's
// current request back to it.
type generator struct {
	pop     *population
	traffic *traffic
	cluster *cluster
	workers []*worker
	next    int // index of the next request in the traffic stream

	dials      atomic.Uint32
	dialErrors atomic.Int64

	traces []clientTrace // traced requests, in order (concurrency 1)
}

func newGenerator(pop *population, tr *traffic, c *cluster, workers int) (*generator, error) {
	g := &generator{pop: pop, traffic: tr, cluster: c}
	for i := 0; i < workers; i++ {
		w := &worker{gen: g}
		cli, err := rbc.Dial(rbc.ClientConfig{
			Addrs: []string{c.addr},
			// One attempt: a transport failure is a failed request, not
			// something to hide behind a retry.
			MaxAttempts: 1,
			DialContext: w.dial,
		})
		if err != nil {
			return nil, err
		}
		w.cli = cli
		g.workers = append(g.workers, w)
	}
	return g, nil
}

// worker is one connection slot of the generator.
type worker struct {
	gen *generator
	cli *rbc.Client

	// challenge holds the first bytes the server sent on the current
	// connection: the challenge frame the result is verified against.
	challenge []byte

	// Traced-pass timestamps of the current request, recorder clock.
	timed    bool
	trace    clientTrace
	lastRead int64
}

func (w *worker) dial(ctx context.Context, addr string) (net.Conn, error) {
	g := w.gen
	if w.timed {
		w.trace.dialStart = g.cluster.rec.now()
	}
	d := net.Dialer{LocalAddr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, byte(2+g.dials.Add(1)%localAddrs))}}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if w.timed {
		w.trace.dialEnd = g.cluster.rec.now()
	}
	if err != nil {
		g.dialErrors.Add(1)
		return nil, err
	}
	return &clientConn{Conn: conn, w: w}, nil
}

// clientConn keeps the challenge bytes for verification and, on traced
// requests, the times that bracket the client's answer: the protocol
// client writes two chunks per frame, so the third write is the digest
// going out and the read before it brought the challenge in.
type clientConn struct {
	net.Conn
	w *worker
}

// challengeFrame is the challenge's size on the wire: length prefix,
// type byte, nonce, algorithm byte and 256 two-byte cell addresses.
const challengeFrame = 4 + 1 + 8 + 1 + 2*256

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	w := c.w
	if room := challengeFrame - len(w.challenge); room > 0 {
		w.challenge = append(w.challenge, p[:min(n, room)]...)
	}
	if w.timed {
		w.lastRead = w.gen.cluster.rec.now()
	}
	return n, err
}

func (c *clientConn) Write(p []byte) (int, error) {
	w := c.w
	if w.timed {
		if w.trace.writes++; w.trace.writes == 3 {
			w.trace.respondStart, w.trace.respondEnd = w.lastRead, w.gen.cluster.rec.now()
		}
	}
	return c.Conn.Write(p)
}

// expectedKey recomputes, from the challenge the server sent and the
// client's own device, the public key a correct server must return: the
// client's (noise-injected) seed, salted, through the key generator.
func expectedKey(c *core.Client, challengeBytes []byte) ([]byte, error) {
	typ, payload, err := netproto.ReadFrame(bytes.NewReader(challengeBytes))
	if err != nil {
		return nil, err
	}
	if typ != netproto.MsgChallenge {
		return nil, fmt.Errorf("first frame has type %d, not a challenge", typ)
	}
	wire, err := netproto.DecodeChallenge(payload)
	if err != nil {
		return nil, err
	}
	seed, err := c.ReadSeed(core.Challenge{Nonce: wire.Nonce, AddressMap: wire.AddressMap, Alg: core.HashAlg(wire.Alg)})
	if err != nil {
		return nil, err
	}
	return (&aeskg.Generator{}).PublicKey(core.SaltSeed(seed, core.DefaultSaltRotation).Bytes()), nil
}

// do runs one authentication and checks its result. Latency runs from
// due (or from now, in a closed loop) to the decoded result; the check
// comes after the clock stops.
func (w *worker) do(req request, due time.Time) outcome {
	g := w.gen
	c := g.pop.clients[req.client]
	c.NoiseBits = req.noise
	w.challenge = w.challenge[:0]
	w.timed = g.cluster.rec.on.Load()
	if w.timed {
		w.trace = clientTrace{start: g.cluster.rec.now()}
	}
	start := due
	if start.IsZero() {
		start = time.Now()
	}
	res, err := w.cli.Authenticate(context.Background(), rbc.ClientAuthRequest{Device: c, Class: req.class()})
	out := outcome{latency: time.Since(start)}
	if w.timed {
		w.trace.end = g.cluster.rec.now()
		g.traces = append(g.traces, w.trace)
	}

	var serverErr *rbc.ServerError
	switch {
	case errors.As(err, &serverErr):
		out.fail = failServer
	case err != nil:
		out.fail = failTransport
	case !res.Authenticated:
		out.fail, err = failDenied, errors.New("not authenticated")
	default:
		var want []byte
		if want, err = expectedKey(c, w.challenge); err == nil && !bytes.Equal(want, res.PublicKey) {
			err = fmt.Errorf("public key differs from the one the client's seed generates")
		}
		if err == nil && g.cluster.primary.State != nil {
			// The server must also have registered the key it returned.
			if got, _ := g.cluster.primary.State.RA().PublicKey(c.ID); !bytes.Equal(got, res.PublicKey) {
				err = fmt.Errorf("RA entry differs from the returned key")
			}
		}
		if err != nil {
			out.fail = failWrongKey
		}
	}
	if out.fail != okay {
		out.err = fmt.Errorf("%s at d=%d: %w", c.ID, req.noise, err)
	}
	return out
}

// segment is one timed stretch of requests.
type segment struct {
	wall      time.Duration
	cpu       time.Duration
	latency   []float64 // ms, ascending, successful requests only
	attempted int
	fails     [failKinds]int
	// Open loop only: how late each request was sent, ms ascending, and
	// the most requests in flight at once.
	late        []float64
	inflightMax int
}

func (s segment) failed() int { return s.attempted - len(s.latency) }

func (s segment) authsPerSec() float64 { return float64(len(s.latency)) / s.wall.Seconds() }

func (s segment) cpuMsPerAuth() float64 {
	if len(s.latency) == 0 {
		return 0
	}
	return ms(s.cpu) / float64(len(s.latency))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func foldSegment(results []outcome, wall, cpu time.Duration) segment {
	s := segment{wall: wall, cpu: cpu, attempted: len(results)}
	logged := 0
	for _, r := range results {
		s.fails[r.fail]++
		if r.fail == okay {
			s.latency = append(s.latency, ms(r.latency))
		} else if logged++; logged <= 3 {
			fmt.Fprintf(os.Stderr, "benchmark: request failed (%s): %v\n", failNames[r.fail], r.err)
		}
	}
	sort.Float64s(s.latency)
	return s
}

// closedLoop sends the next n requests of the stream over conc
// connections, each sending its next request when the previous one
// completes.
func (g *generator) closedLoop(n, conc int) segment {
	base := g.next
	g.next += n
	results := make([]outcome, n)
	var (
		claim atomic.Int64
		wg    sync.WaitGroup
	)
	cpu0, t0 := cpuTime(), time.Now()
	for _, w := range g.workers[:conc] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(claim.Add(1)) - 1; i < n; i = int(claim.Add(1)) - 1 {
				results[i] = w.do(g.traffic.at(base+i), time.Time{})
			}
		}()
	}
	wg.Wait()
	return foldSegment(results, time.Since(t0), cpuTime()-cpu0)
}

// openLoop sends the next len(due) requests of the stream on schedule,
// whether or not earlier ones have completed. Latency runs from each
// request's due time, so a stall charges every request queued behind it.
func (g *generator) openLoop(due []time.Duration, horizon time.Duration) segment {
	n := len(due)
	base := g.next
	g.next += n
	results := make([]outcome, n)
	late := make([]float64, n)
	free := make(chan *worker, len(g.workers))
	for _, w := range g.workers {
		free <- w
	}
	var wg sync.WaitGroup
	inflightMax := 0
	cpu0, t0 := cpuTime(), time.Now()
	for i, offset := range due {
		dueAt := t0.Add(offset)
		time.Sleep(time.Until(dueAt))
		late[i] = ms(time.Since(dueAt))
		select {
		case w := <-free:
			inflightMax = max(inflightMax, cap(free)-len(free))
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = w.do(g.traffic.at(base+i), dueAt)
				free <- w
			}()
		default:
			results[i] = outcome{fail: failShed}
		}
	}
	wg.Wait()
	// The segment lasts its whole schedule even when the last arrival
	// comes early, so throughput reads the offered rate unless requests
	// fail or a backlog outlives the schedule.
	time.Sleep(time.Until(t0.Add(horizon)))
	s := foldSegment(results, time.Since(t0), cpuTime()-cpu0)
	sort.Float64s(late)
	s.late, s.inflightMax = late, inflightMax
	return s
}
