package netproto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/ring"
)

// AuthRequest describes one authentication through a Client: which PUF
// device answers the challenge and the request's QoS envelope.
type AuthRequest struct {
	// Device is the enrolled PUF participant (holds the client ID and
	// answers the challenge).
	Device *core.Client
	// Class is the request's QoS class (zero = interactive).
	Class core.QoSClass
	// Deadline is the absolute deadline sent to the server; zero means
	// none. The context passed to Authenticate bounds the client side
	// independently.
	Deadline time.Time
}

// ClientConfig configures a routing Client.
type ClientConfig struct {
	// Addrs are the bootstrap server addresses (at least one). Without
	// a Ring the first address is tried first and the rest serve as
	// failover candidates.
	Addrs []string
	// Ring, when set, routes each request straight to the node owning
	// the client's shard and stamps the topology epoch into the hello.
	// The bootstrap Addrs stay as failover candidates.
	Ring *ring.Map
	// Latency injects the modelled communication constants (zero =
	// measure the real transport).
	Latency Latency
	// DialTimeout bounds each connection attempt (default 5 s).
	DialTimeout time.Duration
	// MaxAttempts bounds connection attempts per authentication across
	// redirects and failover (default 6).
	MaxAttempts int
	// RetryBackoff is the initial pause before redialing after a
	// transport failure, doubled per attempt (default 25 ms). Redirects
	// are followed immediately.
	RetryBackoff time.Duration
	// DialContext replaces the dialer (tests, TLS wrappers). Nil uses
	// net.Dialer.
	DialContext func(ctx context.Context, addr string) (net.Conn, error)
}

// Client is the routing-aware client side of the protocol. It owns
// address selection (consistent-hash routing when a Ring is configured,
// learned redirects otherwise), reconnection — the server serves one
// authentication per connection, so every request dials — and retries
// across failover. A Client is safe for concurrent use.
//
// Retrying an interrupted handshake is safe by construction: a
// challenge is single-use and acquiring a new one supersedes the old
// session, so the worst case of a retry is an abandoned session entry
// that the TTL sweep collects.
type Client struct {
	cfg ClientConfig

	mu      sync.Mutex
	ring    *ring.Map
	learned map[string]string // client ID → last address that served it
	closed  bool
}

// Dial builds a Client. No connection is made until Authenticate — the
// name mirrors the conventional constructor shape and reserves the
// right to probe eagerly later.
func Dial(cfg ClientConfig) (*Client, error) {
	if len(cfg.Addrs) == 0 && cfg.Ring == nil {
		return nil, errors.New("netproto: ClientConfig needs Addrs or a Ring")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 6
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	return &Client{
		cfg:     cfg,
		ring:    cfg.Ring,
		learned: make(map[string]string),
	}, nil
}

// UpdateRing swaps the routing topology. Updates with an epoch at or
// below the current ring's are ignored (stale gossip); learned
// redirects are dropped because the new topology supersedes them.
func (c *Client) UpdateRing(m *ring.Map) {
	if m == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring != nil && m.Epoch() <= c.ring.Epoch() {
		return
	}
	c.ring = m
	c.learned = make(map[string]string)
}

// Ring returns the current routing topology (nil when unrouted).
func (c *Client) Ring() *ring.Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// Close marks the client closed. It exists so callers can treat Client
// like any other connection-owning handle; there are no pooled
// connections to tear down today.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// candidates builds the ordered address list for one request: the
// learned address (a redirect we followed before), the ring owner, then
// the bootstrap addresses as failover, deduplicated in that order.
func (c *Client) candidates(clientID string) ([]string, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var (
		out   []string
		seen  = make(map[string]bool)
		epoch uint64
	)
	add := func(addr string) {
		if addr != "" && !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	add(c.learned[clientID])
	if c.ring != nil {
		add(c.ring.OwnerOf(clientID).Addr)
		epoch = c.ring.Epoch()
	}
	for _, a := range c.cfg.Addrs {
		add(a)
	}
	return out, epoch
}

// remember records the address that actually served a client so the
// next request skips the redirect hop.
func (c *Client) remember(clientID, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.learned[clientID] = addr
}

func (c *Client) dial(ctx context.Context, addr string) (net.Conn, error) {
	dctx, cancel := context.WithTimeout(ctx, c.cfg.DialTimeout)
	defer cancel()
	if c.cfg.DialContext != nil {
		return c.cfg.DialContext(dctx, addr)
	}
	var d net.Dialer
	return d.DialContext(dctx, "tcp", addr)
}

// Authenticate runs one full authentication, routing to the owning
// node, following StatusWrongShard redirects, and retrying across
// transport failures (a node restarting under it). Server verdicts
// other than a redirect are final and returned as *ServerError.
func (c *Client) Authenticate(ctx context.Context, req AuthRequest) (Result, error) {
	if req.Device == nil {
		return Result{}, errors.New("netproto: AuthRequest.Device required")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Result{}, errors.New("netproto: client closed")
	}
	c.mu.Unlock()

	id := string(req.Device.ID)
	cands, epoch := c.candidates(id)
	if len(cands) == 0 {
		return Result{}, errors.New("netproto: no server addresses")
	}
	opts := AuthOptions{
		Latency:   c.cfg.Latency,
		Class:     req.Class,
		Deadline:  req.Deadline,
		RingEpoch: epoch,
	}

	var (
		lastErr error
		next    = 0 // index into cands for the next transport-level failover
		addr    string
	)
	backoff := c.cfg.RetryBackoff
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if addr == "" {
			addr = cands[next%len(cands)]
			next++
		}
		res, err := c.tryOnce(ctx, addr, req.Device, opts)
		if err == nil {
			c.remember(id, addr)
			return res, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			if se.Status == StatusWrongShard && se.Msg != "" && se.Msg != addr {
				// Redirect: the refusal happened before any session
				// state, so follow it immediately.
				addr = se.Msg
				lastErr = err
				continue
			}
			// Any other server verdict is authoritative.
			return Result{}, err
		}
		// Transport failure: the node is down or restarting. Back off
		// and move to the next candidate (or re-dial the only one).
		lastErr = err
		addr = ""
		select {
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
	return Result{}, fmt.Errorf("netproto: authentication failed after %d attempts: %w",
		c.cfg.MaxAttempts, lastErr)
}

// tryOnce runs the protocol once against one address.
func (c *Client) tryOnce(ctx context.Context, addr string, device *core.Client, opts AuthOptions) (Result, error) {
	conn, err := c.dial(ctx, addr)
	if err != nil {
		return Result{}, err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	// Cancel the in-flight exchange when ctx dies: closing the
	// connection fails the pending read.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	return AuthenticateWithOptions(conn, device, opts)
}
