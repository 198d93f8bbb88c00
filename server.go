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
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/durable"
	"rbcsalted/internal/netproto"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/replica"
	"rbcsalted/internal/ring"
	"rbcsalted/internal/sched"
)

// replicaMetaFile is the node's single replication identity file under
// DataDir: the fencing epoch it last participated at and, while
// following, the cursor into its upstream. Sharing one file between the
// follower and primary roles is what carries a promotion's epoch across
// a restart into `-role primary`.
const replicaMetaFile = "replica.meta"

// ServerConfig assembles a complete CA serving node: search engine,
// scheduler, CA policy, enrollment, durability, and (optionally) shard
// routing and replication. The zero value of every field is a sensible
// default; rbc-server is a flag-parsing shim over this struct.
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

	// Backend selects the search engine; Cores sizes it (0 =
	// GOMAXPROCS). JoulesBudget and PlanPolicy apply to the planner
	// kind.
	Backend      BackendKind
	Cores        int
	JoulesBudget float64
	PlanPolicy   PlanPolicy

	// SchedWorkers/SchedQueue size the admission pool; Hedge enables
	// hedged dispatch with an optional fixed HedgeDelay.
	SchedWorkers int
	SchedQueue   int
	Hedge        bool
	HedgeDelay   time.Duration

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

	// NodeID and Ring, when both set, make the node routing-aware: a
	// hello for a shard this node does not own is refused with
	// StatusWrongShard carrying the owner's address.
	NodeID string
	Ring   *RingMap

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

// ringRouter implements netproto.Router over a RingMap.
type ringRouter struct {
	self string
	m    *ring.Map
}

func (r *ringRouter) Route(clientID string, epoch uint64) (string, bool) {
	owner := r.m.OwnerOf(clientID)
	if owner.ID == r.self {
		return "", true
	}
	return owner.Addr, false
}

// NewServer wires the full serving path. Close the node when done; on a
// durable data directory the close takes the shutdown snapshot.
func NewServer(cfg ServerConfig) (*ServerNode, error) {
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
	)
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
			return nil, err
		}
	}
	if ra == nil {
		ra = core.NewRA()
	}
	engine, err := NewBackend(BackendSpec{
		Kind:         cfg.Backend,
		Alg:          core.SHA3,
		Cores:        cfg.Cores,
		JoulesBudget: cfg.JoulesBudget,
		PlanPolicy:   cfg.PlanPolicy,
		Metrics:      reg, // the planner kind publishes dispatch stats here
	})
	if err != nil {
		return nil, err
	}
	pool := sched.New(engine, sched.Config{
		Workers:    cfg.SchedWorkers,
		QueueDepth: cfg.SchedQueue,
		Hedge:      sched.HedgeConfig{Enabled: cfg.Hedge, Delay: cfg.HedgeDelay},
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
		pool.Close()
		return nil, err
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
			pool.Close()
			return nil, err
		}
		im, err := puf.Enroll(dev, 31)
		if err != nil {
			pool.Close()
			return nil, err
		}
		if err := ca.Enroll(core.ClientID(id), im); err != nil {
			pool.Close()
			return nil, err
		}
	}

	// Live scheduler stats ride along in every /metrics snapshot, so
	// the debug endpoint always agrees with sched.Stats().
	reg.Func("sched", func() any { return pool.Stats() })

	proto := &netproto.Server{
		CA:      ca,
		Metrics: netproto.NewMetrics(reg),
	}
	if cfg.NodeID != "" && cfg.Ring != nil {
		proto.Router = &ringRouter{self: cfg.NodeID, m: cfg.Ring}
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

func (n *ServerNode) numShards() int {
	if n.cfg.Ring != nil {
		return n.cfg.Ring.NumShards()
	}
	return ring.DefaultNumShards
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
		State:     n.State,
		Epoch:     meta.Epoch,
		NumShards: n.numShards(),
		OnFenced:  n.cfg.OnFenced,
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
// promoted, redialling on transient failures. shards selects a subset
// (nil = everything). Requires DataDir.
func (n *ServerNode) Follow(ctx context.Context, addr string, shards []int) error {
	f, err := n.ensureFollower(shards)
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
	f, err := n.ensureFollower(nil)
	if err != nil {
		return 0, err
	}
	return f.Promote()
}

func (n *ServerNode) ensureFollower(shards []int) (*replica.Follower, error) {
	if n.State == nil {
		return nil, fmt.Errorf("rbc: replication requires ServerConfig.DataDir")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.follower == nil {
		id := n.cfg.NodeID
		if id == "" {
			id = "follower"
		}
		f, err := replica.NewFollower(replica.FollowerConfig{
			State:     n.State,
			ID:        id,
			MetaPath:  n.metaPath(),
			NumShards: n.numShards(),
			Shards:    shards,
		})
		if err != nil {
			return nil, err
		}
		n.follower = f
	}
	return n.follower, nil
}
