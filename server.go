package rbc

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/durable"
	"rbcsalted/internal/netproto"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/replica"
	"rbcsalted/internal/sched"
)

// replicaMetaFile is the node's single replication identity file under
// DataDir: the fencing epoch it last participated at and, while
// following, the cursor into its upstream. Sharing one file between the
// follower and primary roles is what carries a promotion's epoch across
// a restart into `-role primary`.
const replicaMetaFile = "replica.meta"

// ServerConfig assembles a complete CA serving node: search engine,
// scheduler, CA policy, enrollment, durability and (optionally)
// replication. The zero value of every field is a sensible default;
// rbc-server is a flag-parsing shim over this struct.
type ServerConfig struct {
	// Clients are demo client IDs to self-enroll at startup
	// (deterministically from EnrollSeed). IDs already present in the
	// store are left untouched, so restarts do not reset key chains.
	Clients []string
	// EnrollSeed is the device-seed base for self-enrollment.
	EnrollSeed uint64
	// PUFProfile overrides the noise profile for self-enrolled clients
	// (nil = DefaultPUFProfile).
	PUFProfile *PUFProfile

	// MaxDistance is the CA's search bound; TimeLimit its threshold T.
	MaxDistance int
	TimeLimit   time.Duration
	// InlineDepth is CAConfig.InlineDepth (0 = default, negative =
	// always queue).
	InlineDepth int

	// Backend must be BackendCPU, its zero value; Cores sizes the
	// engine's search workers (0 = GOMAXPROCS).
	Backend BackendKind
	Cores   int

	// SchedWorkers/SchedQueue size the admission pool.
	SchedWorkers int
	SchedQueue   int

	// TraceDepth is the flight-recorder capacity (0 = 1024).
	TraceDepth int

	// Store serves images from a pre-loaded store (rbc-enroll).
	// Mutually exclusive with DataDir.
	Store *ImageStore
	// DataDir, when set, opens a durable State there; replication
	// (ServeReplication/Follow/Promote) requires it.
	DataDir   string
	Sync      WALSyncPolicy
	MasterKey [32]byte

	// OnFenced, when set, fires once if a higher-epoch subscriber
	// fences this node's replication primary (a promotion happened
	// elsewhere; the server should stand down).
	OnFenced func(epoch uint64)
}

// ServerNode is an assembled serving node. Every layer shares one
// metrics registry and one trace ring, exactly like rbc-server's
// -debug-addr surface.
type ServerNode struct {
	CA   *CA
	Pool *Scheduler
	// Proto is the wire server; Serve is shorthand for Proto.Serve.
	Proto   *Server
	Metrics *MetricsRegistry
	Trace   *TraceRing
	// State is non-nil when the node runs on a durable data directory.
	State *DurableState

	cfg      ServerConfig
	mu       sync.Mutex
	closed   bool
	primary  *replica.Primary
	follower *replica.Follower
	// quit is cancelled by Close and follows counts the running Follow
	// calls, so Close can stop ingestion before the final snapshot.
	quit    context.Context
	stop    context.CancelFunc
	follows sync.WaitGroup
}

// BackendKind names a server's search engine.
type BackendKind int

// BackendCPU is the real multicore engine (SALTED-CPU), the one engine a
// server runs.
const BackendCPU BackendKind = 0

// NewServer wires the full serving path. Close the node when done; on a
// durable data directory the close takes the shutdown snapshot.
func NewServer(cfg ServerConfig) (*ServerNode, error) {
	if cfg.Backend != BackendCPU {
		return nil, fmt.Errorf("rbc: ServerConfig.Backend %d: a server runs only BackendCPU", cfg.Backend)
	}
	if cfg.Cores < 0 {
		return nil, fmt.Errorf("rbc: negative cores %d", cfg.Cores)
	}
	reg := obs.NewRegistry()
	// Point the host hot path's batch-phase histograms (host_batch_fill_ns
	// / host_batch_pack_ns) at this node's registry so the fill-vs-pack
	// split shows up in /metrics. The hooks are process-global
	// (last-writer-wins across embedded nodes, see SetHostBatchMetrics).
	core.SetHostBatchMetrics(core.RegisterHostBatchMetrics(reg))
	depth := cfg.TraceDepth
	if depth <= 0 {
		depth = 1024
	}
	traceRing := obs.NewRing(depth)

	var (
		state       *durable.State
		ra          *core.RA
		cfgSessions *core.SessionTable
		pool        *sched.Scheduler
	)
	// fail closes what NewServer opened before err: the scheduler and the
	// durable state, whose WAL file and sync goroutine would outlive a
	// failed call.
	fail := func(err error) (*ServerNode, error) {
		if pool != nil {
			pool.Close()
		}
		if state != nil {
			state.Close()
		}
		return nil, err
	}
	store := cfg.Store
	switch {
	case cfg.DataDir != "":
		if store != nil {
			return nil, fmt.Errorf("rbc: ServerConfig.Store and DataDir are mutually exclusive")
		}
		var err error
		state, err = durable.Open(durable.Options{
			Dir:       cfg.DataDir,
			MasterKey: cfg.MasterKey,
			Sync:      cfg.Sync,
			Metrics:   reg,
		})
		if err != nil {
			return nil, err
		}
		store, ra, cfgSessions = state.Images(), state.RA(), state.Sessions()
	case store == nil:
		var err error
		store, err = core.NewImageStore([32]byte{0x52, 0x42, 0x43}) // demo master key
		if err != nil {
			return fail(err)
		}
	}
	if ra == nil {
		ra = core.NewRA()
	}
	pool = sched.New(&cpu.Backend{Alg: core.SHA3, Workers: cfg.Cores}, sched.Config{
		Workers:    cfg.SchedWorkers,
		QueueDepth: cfg.SchedQueue,
		Trace:      traceRing,
		Metrics:    reg,
	})
	ca, err := core.NewCA(store, pool, &aeskg.Generator{}, ra, core.CAConfig{
		Alg:         core.SHA3,
		MaxDistance: cfg.MaxDistance,
		TimeLimit:   cfg.TimeLimit,
		InlineDepth: cfg.InlineDepth,
		Trace:       traceRing,
		Sessions:    cfgSessions,
	})
	if err != nil {
		return fail(err)
	}

	profile := puf.DefaultProfile
	if cfg.PUFProfile != nil {
		profile = *cfg.PUFProfile
	}
	for i, id := range cfg.Clients {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		// On a durable data directory, restart must not re-enroll
		// clients the store already holds: that would reset their
		// key-rotation chain and desynchronize live devices.
		if store.Has(core.ClientID(id)) {
			continue
		}
		devSeed := cfg.EnrollSeed + uint64(i)
		dev, err := puf.NewDevice(devSeed, 1024, profile)
		if err != nil {
			return fail(err)
		}
		im, err := puf.Enroll(dev, 31)
		if err != nil {
			return fail(err)
		}
		if err := ca.Enroll(core.ClientID(id), im); err != nil {
			return fail(err)
		}
	}

	// Live scheduler stats ride along in every /metrics snapshot, so
	// the debug endpoint always agrees with sched.Stats().
	reg.Func("sched", func() any { return pool.Stats() })

	proto := &netproto.Server{
		CA:      ca,
		Metrics: netproto.NewMetrics(reg),
	}
	quit, stop := context.WithCancel(context.Background())
	return &ServerNode{
		CA: ca, Pool: pool, Proto: proto,
		Metrics: reg, Trace: traceRing, State: state,
		cfg: cfg, quit: quit, stop: stop,
	}, nil
}

// Serve accepts protocol clients on ln until the listener closes (on a
// closed node: closes ln and returns nil).
func (n *ServerNode) Serve(ln net.Listener) error { return n.Proto.Serve(ln) }

// Close tears the node down in dependency order; the durable state goes
// last, after every running Follow has returned, so its shutdown
// snapshot sees every mutation and races none. Serve, ServeReplication
// and Follow calls that have not started yet return at once.
func (n *ServerNode) Close() error {
	// The listener's owner may have closed it already; that error says
	// nothing about the node.
	_ = n.Proto.Close()
	n.Pool.Close()
	n.mu.Lock()
	n.closed = true
	p := n.primary
	n.mu.Unlock()
	if p != nil {
		p.Close()
	}
	n.stop()
	n.follows.Wait()
	if n.State != nil {
		return n.State.Close()
	}
	return nil
}

// DebugListener starts the node's debug HTTP listener (the -debug-addr
// surface: /metrics, /trace, /healthz, /debug/pprof); close it to stop.
func (n *ServerNode) DebugListener(addr string) (net.Listener, error) {
	return obs.Serve(addr, n.Metrics, n.Trace)
}

// metaPath is the node's replication identity file (requires DataDir).
func (n *ServerNode) metaPath() string {
	return filepath.Join(n.cfg.DataDir, replicaMetaFile)
}

// ServeReplication streams this node's WAL to followers on ln, at the
// fencing epoch persisted in the node's replication meta. Requires
// DataDir.
func (n *ServerNode) ServeReplication(ln net.Listener) error {
	if n.State == nil {
		return fmt.Errorf("rbc: replication requires ServerConfig.DataDir")
	}
	meta, err := replica.LoadMeta(n.metaPath())
	if err != nil {
		return err
	}
	p := &replica.Primary{
		State:    n.State,
		Epoch:    meta.Epoch,
		OnFenced: n.cfg.OnFenced,
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return nil
	}
	if n.primary != nil {
		n.mu.Unlock()
		ln.Close()
		return fmt.Errorf("rbc: replication already serving")
	}
	n.primary = p
	n.mu.Unlock()
	return p.Serve(ln)
}

// Replica returns the replication primary, nil before ServeReplication.
func (n *ServerNode) Replica() *ReplicaPrimary {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primary
}

// Follow subscribes this node to the primary at addr and ingests its
// WAL until ctx is done, the node is closed (context.Canceled) or it is
// promoted, redialling on transient failures. Requires DataDir.
//
// A follower replicates every record. shards is left from the removed
// shard ring, when a follower could take a subset; it stays only because
// the wire-to-wire benchmark (benchmark/node.go) passes nil, and a
// non-empty one is refused before any dial.
func (n *ServerNode) Follow(ctx context.Context, addr string, shards []int) error {
	if len(shards) > 0 {
		return fmt.Errorf("rbc: Follow of shards %v: sharding was removed, a follower replicates every record", shards)
	}
	f, err := n.ensureFollower()
	if err != nil {
		return err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return context.Canceled
	}
	n.follows.Add(1)
	n.mu.Unlock()
	defer n.follows.Done()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(n.quit, cancel)()
	return f.RunUntil(ctx, addr, time.Second)
}

// Promote makes this node the authoritative primary of its replication
// group: it bumps the fencing epoch (so the deposed primary is fenced
// on its next contact) and adds PromoteNonceSlack of challenge-nonce
// headroom. Serve replication afterwards to accept the other followers.
func (n *ServerNode) Promote() (uint64, error) {
	f, err := n.ensureFollower()
	if err != nil {
		return 0, err
	}
	return f.Promote()
}

func (n *ServerNode) ensureFollower() (*replica.Follower, error) {
	if n.State == nil {
		return nil, fmt.Errorf("rbc: replication requires ServerConfig.DataDir")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.follower == nil {
		// The primary's liveness table tells followers apart by address.
		f, err := replica.NewFollower(replica.FollowerConfig{
			State:    n.State,
			ID:       "follower",
			MetaPath: n.metaPath(),
		})
		if err != nil {
			return nil, err
		}
		n.follower = f
	}
	return n.follower, nil
}
