package netproto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rbcsalted/internal/core"
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

// ClientConfig configures a Client.
type ClientConfig struct {
	// Addrs are the replication group's server addresses (at least
	// one). The first is tried first; the rest serve as failover
	// candidates.
	Addrs []string
	// Latency injects the modelled communication constants (zero =
	// measure the real transport).
	Latency Latency
	// DialTimeout bounds each connection attempt (default 5 s).
	DialTimeout time.Duration
	// MaxAttempts bounds connection attempts per authentication across
	// failover (default 6).
	MaxAttempts int
	// RetryBackoff is the initial pause before redialing after a
	// transport failure, doubled per attempt (default 25 ms).
	RetryBackoff time.Duration
	// DialContext replaces the dialer (tests, TLS wrappers). Nil uses
	// net.Dialer.
	DialContext func(ctx context.Context, addr string) (net.Conn, error)
}

// Client is the client side of the protocol against one replication
// group. It owns address selection — it starts at the address that last
// served it and walks Addrs from there on a transport failure, so after
// a failover it stays on the survivor — reconnection (the server serves
// one authentication per connection, so every request dials) and
// retries. A Client is safe for concurrent use.
//
// Retrying an interrupted handshake is safe by construction: a
// challenge is single-use and acquiring a new one supersedes the old
// session, so the worst case of a retry is an abandoned session entry
// that the TTL sweep collects.
type Client struct {
	cfg ClientConfig

	mu     sync.Mutex
	last   int // index into cfg.Addrs of the address that last served
	closed bool
}

// Dial builds a Client. No connection is made until Authenticate — the
// name mirrors the conventional constructor shape and reserves the
// right to probe eagerly later.
func Dial(cfg ClientConfig) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("netproto: ClientConfig needs Addrs")
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
	return &Client{cfg: cfg}, nil
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

func (c *Client) dial(ctx context.Context, addr string) (net.Conn, error) {
	dctx, cancel := context.WithTimeout(ctx, c.cfg.DialTimeout)
	defer cancel()
	if c.cfg.DialContext != nil {
		return c.cfg.DialContext(dctx, addr)
	}
	var d net.Dialer
	return d.DialContext(dctx, "tcp", addr)
}

// Authenticate runs one full authentication, retrying across transport
// failures (a node restarting or dying under it) on the next address.
// Every server verdict is final and returned as *ServerError.
func (c *Client) Authenticate(ctx context.Context, req AuthRequest) (Result, error) {
	if req.Device == nil {
		return Result{}, errors.New("netproto: AuthRequest.Device required")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Result{}, errors.New("netproto: client closed")
	}
	next := c.last
	c.mu.Unlock()

	opts := AuthOptions{
		Latency:  c.cfg.Latency,
		Class:    req.Class,
		Deadline: req.Deadline,
	}
	var lastErr error
	backoff := c.cfg.RetryBackoff
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		i := next % len(c.cfg.Addrs)
		res, err := c.tryOnce(ctx, c.cfg.Addrs[i], req.Device, opts)
		if err == nil {
			c.mu.Lock()
			c.last = i
			c.mu.Unlock()
			return res, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			return Result{}, err
		}
		// Transport failure: the node is down or restarting. Back off
		// and move to the next address (or re-dial the only one).
		lastErr = err
		next++
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
