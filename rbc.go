// Package rbc is the public API of this repository: a Go implementation
// of RBC-SALTED, the hash-based Response-Based Cryptography protocol of
// "Evaluating Accelerators for a High-Throughput Hash-Based Security
// Protocol" (ICPP-W 2023), together with the search engines it was
// evaluated on.
//
// Response-Based Cryptography authenticates a client whose PUF (Physical
// Unclonable Function) produces a slightly erratic 256-bit seed: the
// server searches the Hamming ball around its enrolled image of the PUF
// until it finds the seed whose digest matches the one the client sent,
// then salts the seed and generates the session's public key from it.
//
// # Quick start
//
//	dev, _ := rbc.NewPUFDevice(1234, 1024, rbc.DefaultPUFProfile)
//	image, _ := rbc.EnrollPUF(dev, 31)
//
//	store, _ := rbc.NewImageStore(masterKey)
//	ca, _ := rbc.NewCA(store, &rbc.CPUBackend{Alg: rbc.SHA3}, &rbc.AESKeyGenerator{}, rbc.NewRA(), rbc.CAConfig{})
//	ca.Enroll("alice", image)
//
//	client := &rbc.PUFClient{ID: "alice", Device: dev}
//	ch, _ := ca.BeginHandshake("alice")
//	m1, _ := client.Respond(ch)
//	result, _ := ca.Authenticate(ctx, rbc.AuthRequest{Client: "alice", Nonce: ch.Nonce, M1: m1})
//
// AuthRequest optionally carries a QoS class (ClassInteractive,
// ClassBatch, ClassBackground) and an absolute deadline; both flow
// through the scheduler's admission control and onto the wire.
//
// # Search engines
//
// Four interchangeable core.Backend implementations are exposed, all
// constructed through the single NewBackend entry point:
//
//   - BackendCPU: real multicore execution on this machine (SALTED-CPU).
//   - BackendGPU: a calibrated NVIDIA A100 simulator (SALTED-GPU),
//     including multi-GPU scaling.
//   - BackendAPU: a calibrated GSI Gemini associative-processor
//     simulator (SALTED-APU) whose compute runs through a real bit-sliced
//     gate-level engine.
//   - BackendPlanner: a cost-based multiplexer over the three above,
//     dispatching each search to the engine its calibrated cost curves
//     predict to be cheapest.
//
// For example:
//
//	engine, _ := rbc.NewBackend(rbc.BackendSpec{Kind: rbc.BackendGPU, Alg: rbc.SHA3, Devices: 3})
//
// Every backend implements Search(ctx, task), and every one runs the
// same Algorithm 1 (core.SearchBall) over its own way of covering a
// shell: cancelling ctx stops the shell loops cooperatively, and
// whatever ends a search early — cancellation or an engine error — the
// partial Result comes back with the error.
//
// # Serving many clients
//
// NewScheduler wraps any Backend in a bounded worker pool with
// class-aware admission queues — the serving-side counterpart of the
// paper's throughput work. The scheduler is itself a Backend, so a CA
// (or a netproto.Server) plugs it in unchanged:
//
//	s := rbc.NewScheduler(&rbc.CPUBackend{Alg: rbc.SHA3},
//		rbc.SchedulerConfig{Workers: 4, QueueDepth: 64})
//	defer s.Close()
//	ca, _ := rbc.NewCA(store, s, &rbc.AESKeyGenerator{}, rbc.NewRA(), rbc.CAConfig{})
//
// Serving is distance-progressive and deadline-aware. The CA runs
// shells d <= CAConfig.InlineDepth (default 1) inline on the calling
// goroutine — the common low-noise case never waits in a queue — and
// escalates only the larger shells to the backend. Interactive
// requests are dequeued before batch before background (with priority
// aging so nothing starves); a request whose deadline cannot be met is
// refused with ErrDeadlineInfeasible instead of burning search time;
// when the queue is full, admission sheds the largest-distance,
// loosest-deadline background work first and otherwise fails fast with
// ErrOverloaded (wire status "overloaded"). A straggling search can be
// handed off to the backend's alternate engine past the shells it
// finished (SchedulerConfig.Hedge); s.Stats() reports per-class
// queue-wait, service-time, shed and hedge counters.
//
// # Observability
//
// The serving path is instrumented end to end with the dependency-free
// obs layer: a MetricsRegistry collects counters, gauges and latency
// histograms from the scheduler and the protocol server, and a
// TraceRing retains the most recent per-search trace events (enqueue,
// dequeue, per-shell progress, outcome) emitted by the scheduler and
// every backend. DebugHandler serves both as JSON alongside
// net/http/pprof:
//
//	reg, ring := rbc.NewMetricsRegistry(), rbc.NewTraceRing(1024)
//	s := rbc.NewScheduler(engine, rbc.SchedulerConfig{Trace: ring, Metrics: reg})
//	srv := &rbc.Server{CA: ca, Metrics: rbc.NewNetMetrics(reg)}
//	http.ListenAndServe("127.0.0.1:7444", rbc.DebugHandler(reg, ring))
//
// rbc-server exposes the same surface with its -debug-addr flag.
//
// # Durability
//
// RBC-SALTED rotates a client's key on every authentication, so the
// registry mutates on the hot path and a crash desynchronizes clients.
// OpenDurable journals every image, key and session mutation to a
// CRC-framed write-ahead log under a data directory, snapshots on clean
// shutdown, and replays WAL-over-snapshot on open (truncating a torn
// tail):
//
//	state, _ := rbc.OpenDurable(rbc.DurableOptions{Dir: "/var/lib/rbc", MasterKey: masterKey})
//	defer state.Close()
//	ca, _ := rbc.NewCA(state.Images(), backend, &rbc.AESKeyGenerator{}, state.RA(),
//		rbc.CAConfig{Sessions: state.Sessions()})
//
// rbc-server exposes this as -data-dir (with -sync choosing the fsync
// policy); rbc-enroll can enroll into and deprovision from the same
// directory.
//
// See DESIGN.md for the modelling and calibration methodology and
// EXPERIMENTS.md for the paper-versus-reproduction numbers.
package rbc

import (
	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/cryptoalg"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/cryptoalg/dilithium"
	"rbcsalted/internal/cryptoalg/saber"
	"rbcsalted/internal/durable"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/netproto"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/plan"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/replica"
	"rbcsalted/internal/ring"
	"rbcsalted/internal/sched"
	"rbcsalted/internal/u256"
)

// Core protocol types.
type (
	// Seed is a 256-bit PUF seed.
	Seed = u256.Uint256
	// HashAlg selects the search hash (SHA1 or SHA3).
	HashAlg = core.HashAlg
	// Digest is an algorithm-tagged message digest.
	Digest = core.Digest
	// Task describes one RBC search.
	Task = core.Task
	// Result reports a search outcome and its cost accounting.
	Result = core.Result
	// Backend is a search engine bound to a platform.
	Backend = core.Backend
	// ClientID names an enrolled client.
	ClientID = core.ClientID
	// Challenge is the CA's session challenge.
	Challenge = core.Challenge
	// CA is the certificate authority.
	CA = core.CA
	// CAConfig is the CA's policy knobs.
	CAConfig = core.CAConfig
	// RA is the registration authority (public-key registry).
	RA = core.RA
	// AuthRequest is one authentication attempt: client identity,
	// challenge nonce, response digest, plus optional QoS class and
	// absolute deadline for the serving path.
	AuthRequest = core.AuthRequest
	// QoSClass is a request's scheduling class (interactive, batch,
	// background).
	QoSClass = core.QoSClass
	// AuthResult is an authentication outcome.
	AuthResult = core.AuthResult
	// PUFClient is the PUF-equipped device-side participant (the thing
	// that answers challenges). The networked counterpart that carries
	// a PUFClient's response to a CA over TCP is Client.
	PUFClient = core.Client
	// ImageStore is the CA's encrypted PUF-image database.
	ImageStore = core.ImageStore
	// Certificate is the CA-signed binding of a client to a session key.
	Certificate = core.Certificate
	// Issuer signs certificates on behalf of the CA.
	Issuer = core.Issuer
	// ShellStat is one Hamming shell's contribution to a search.
	ShellStat = core.ShellStat
	// SessionTable holds the CA's open handshake sessions (injectable
	// via CAConfig.Sessions for durability).
	SessionTable = core.SessionTable
	// Journal receives every store mutation before it is applied; the
	// durable State implements it.
	Journal = core.Journal
)

// Hash algorithm constants.
const (
	SHA1 = core.SHA1
	SHA3 = core.SHA3
)

// QoS classes, best first. The zero value is interactive, so requests
// that never think about scheduling get the best treatment.
const (
	ClassInteractive = core.ClassInteractive
	ClassBatch       = core.ClassBatch
	ClassBackground  = core.ClassBackground
)

// Inline fast-path depths for CAConfig.InlineDepth.
const (
	// DefaultInlineDepth (d <= 1) is applied when InlineDepth is zero.
	DefaultInlineDepth = core.DefaultInlineDepth
	// MaxInlineDepth bounds the inline fast path; larger shells always
	// escalate to the backend.
	MaxInlineDepth = core.MaxInlineDepth
	// InlineDisabled routes every shell (d = 0 up) to the backend.
	InlineDisabled = core.InlineDisabled
)

// Sentinel errors, for classification with errors.Is. netproto maps each
// to a distinct wire status code.
var (
	// ErrUnknownClient: no PUF image enrolled for the client ID.
	ErrUnknownClient = core.ErrUnknownClient
	// ErrNoSession: no open handshake for the (client, nonce) pair;
	// challenges are strictly single-use.
	ErrNoSession = core.ErrNoSession
	// ErrAlgMismatch: client digest algorithm differs from CA policy.
	ErrAlgMismatch = core.ErrAlgMismatch
	// ErrBadConfig: CAConfig.Validate rejected the configuration.
	ErrBadConfig = core.ErrBadConfig
	// ErrOverloaded: the scheduler's admission queue was full.
	ErrOverloaded = sched.ErrOverloaded
	// ErrDeadlineInfeasible: the request's deadline could not be met, so
	// it was refused without burning backend time.
	ErrDeadlineInfeasible = sched.ErrDeadlineInfeasible
	// ErrSchedulerClosed: Search after Scheduler.Close.
	ErrSchedulerClosed = sched.ErrClosed
)

// Authentication scheduler: a bounded worker pool over any Backend.
type (
	// Scheduler is the multi-tenant admission-controlled search pool; it
	// implements Backend itself, so it composes with CA and Server.
	Scheduler = sched.Scheduler
	// SchedulerConfig sizes the pool (Workers) and its FIFO admission
	// queue (QueueDepth).
	SchedulerConfig = sched.Config
	// SchedulerStats is a snapshot of the scheduler's queue-wait,
	// service-time and outcome counters.
	SchedulerStats = sched.Stats
	// HedgeConfig tunes the hand-off of straggling searches
	// (SchedulerConfig.Hedge).
	HedgeConfig = sched.HedgeConfig
)

// NewScheduler starts a scheduler over backend. Zero config fields take
// the sched package defaults (4 workers, depth 64). Call Close to stop
// the pool.
func NewScheduler(backend Backend, cfg SchedulerConfig) *Scheduler {
	return sched.New(backend, cfg)
}

// Host search matchers: the predicate layer of the real execution
// engine. The default HashMatcher batches candidates up to MatchWidth at
// a time through the algorithm's batch kernel (see BatchKernel and
// core.HashMatcher).
type (
	// Matcher decides whether candidate seeds match the search target;
	// one instance is built per worker goroutine.
	Matcher = core.Matcher
	// BatchMatcher is a Matcher that evaluates up to MatchWidth
	// candidates in one call - given as a base and per-candidate flip
	// masks - returning a MatchMask of matches.
	BatchMatcher = core.BatchMatcher
	// MatcherFactory builds one Matcher per search worker.
	MatcherFactory = core.MatcherFactory
	// HashMatcher is the digest-equality matcher used by every hashing
	// backend: scalar quick-reject plus the algorithm's batch kernel
	// (8-way lane-interleaved Keccak for SHA-3, multi-buffer interleaved
	// compression for SHA-1).
	HashMatcher = core.HashMatcher
	// MatchMask is the per-batch match bitmask: bit i%64 of word i/64
	// is set iff candidate i matched.
	MatchMask = core.MatchMask
	// BatchKernel identifies a match-engine implementation; the batch
	// kernel is a function of the hash algorithm (DefaultKernel).
	BatchKernel = core.BatchKernel
)

// Host search engine constants.
const (
	// MatchWidth is the largest number of candidates a BatchMatcher
	// evaluates per call.
	MatchWidth = core.MatchWidth
	// DefaultCheckInterval is the early-exit poll interval applied when
	// Task.CheckInterval is left at zero.
	DefaultCheckInterval = core.DefaultCheckInterval
)

// The match kernels (see BatchKernel).
const (
	// KernelScalar is the one-seed-at-a-time quick-reject loop, the
	// reference ScalarMatcher forces.
	KernelScalar = core.KernelScalar
	// KernelMulti4 is the 4-way interleaved multi-buffer scalar
	// compression, the SHA-1 batch kernel.
	KernelMulti4 = core.KernelMulti4
	// KernelKeccakX8 is the 8-way lane-interleaved Keccak (register-
	// resident on AVX-512 hosts), the SHA-3 batch kernel.
	KernelKeccakX8 = core.KernelKeccakX8
)

// Matcher constructors.
var (
	// NewHashMatcher builds the digest-equality matcher for one
	// (algorithm, target) pair.
	NewHashMatcher = core.NewHashMatcher
	// HashMatcherFactory returns the default per-worker matcher factory
	// of every hashing backend.
	HashMatcherFactory = core.HashMatcherFactory
	// ScalarMatcher strips a factory's batch capability, forcing the
	// one-seed-at-a-time path (correctness oracle, benchmarks).
	ScalarMatcher = core.ScalarMatcher
	// BatchKernels lists the batch kernels implemented for an algorithm.
	BatchKernels = core.BatchKernels
	// DefaultKernel returns the batch kernel a HashMatcher runs for an
	// algorithm.
	DefaultKernel = core.DefaultKernel
)

// IterMethod selects a seed-iteration algorithm (paper §3.2.1).
type IterMethod = iterseq.Method

// Seed-iteration methods.
const (
	// IterGray is the minimal-change revolving-door sequence (the
	// paper's Chase Algorithm 382 slot) - the fastest method.
	IterGray = iterseq.GrayCode
	// IterAlg515 is Buckles-Lybanon lexicographic unranking.
	IterAlg515 = iterseq.Alg515
	// IterGosper is Gosper's hack at 256 bits, as used by prior work.
	IterGosper = iterseq.Gosper
	// IterMifsud is the lexicographic-successor baseline.
	IterMifsud = iterseq.Mifsud154
)

// PUF modelling.
type (
	// PUFDevice is a client-side physical unclonable function.
	PUFDevice = puf.Device
	// PUFImage is the server-side enrollment record.
	PUFImage = puf.Image
	// PUFProfile describes cell error statistics.
	PUFProfile = puf.Profile
)

// DefaultPUFProfile mirrors the paper's nominal 5-bits-in-256 error rate.
var DefaultPUFProfile = puf.DefaultProfile

// NewPUFDevice manufactures a reproducible simulated PUF.
func NewPUFDevice(seed uint64, numCells int, p PUFProfile) (*PUFDevice, error) {
	return puf.NewDevice(seed, numCells, p)
}

// EnrollPUF captures a device's enrollment image over repeated reads.
func EnrollPUF(d *PUFDevice, reads int) (*PUFImage, error) {
	return puf.Enroll(d, reads)
}

// Protocol constructors.
var (
	// NewRA returns an empty registration authority.
	NewRA = core.NewRA
	// NewCA assembles a certificate authority.
	NewCA = core.NewCA
	// NewImageStore opens an encrypted PUF-image store.
	NewImageStore = core.NewImageStore
	// NewSessionTable returns an empty session table.
	NewSessionTable = core.NewSessionTable
	// HashSeed digests a seed with the fixed-padding fast path.
	HashSeed = core.HashSeed
	// SaltSeed applies the shared salt to a recovered seed.
	SaltSeed = core.SaltSeed
	// NewIssuer creates a certificate issuer from a 32-byte seed.
	NewIssuer = core.NewIssuer
)

// DefaultSessionTTL is the CA's default challenge lifetime.
const DefaultSessionTTL = core.DefaultSessionTTL

// Durable state: WAL + snapshots under a data directory, journaling
// every image, key and session mutation (rbc-server's -data-dir).
type (
	// DurableState is the persistence root; its Images/RA/Sessions
	// accessors plug straight into NewCA.
	DurableState = durable.State
	// DurableOptions configures OpenDurable (directory, master key,
	// fsync policy, segment size, metrics).
	DurableOptions = durable.Options
	// RecoveryStats reports what OpenDurable found and repaired.
	RecoveryStats = durable.RecoveryStats
	// WALSyncPolicy selects when the write-ahead log calls fsync.
	WALSyncPolicy = durable.SyncPolicy
)

// WAL fsync policies.
const (
	// SyncInterval (default): background fsync every ~100 ms.
	SyncInterval = durable.SyncInterval
	// SyncAlways: every mutation is durable before the reply that
	// acknowledges it (one fsync per authentication plus one per 1,024
	// challenges, shared by concurrent requests); no acknowledged loss.
	SyncAlways = durable.SyncAlways
	// SyncNever: leave flushing to the OS page cache.
	SyncNever = durable.SyncNever
)

var (
	// OpenDurable opens (or initializes) a durable data directory and
	// replays WAL-over-snapshot into fresh stores.
	OpenDurable = durable.Open
	// ParseWALSyncPolicy parses "always", "interval" or "never".
	ParseWALSyncPolicy = durable.ParseSyncPolicy
)

// CPUBackend is the real multicore search engine (SALTED-CPU).
type CPUBackend = cpu.Backend

// Cost-based planner (see DESIGN.md §13): dispatches each search to the
// engine the calibrated cost curves predict to be cheapest under the
// chosen policy, deadline and joules budget, with live EWMA feedback
// correcting the static curves.
type (
	// Planner is the dispatching backend; NewBackend with
	// BackendSpec{Kind: BackendPlanner} builds one over the standard
	// CPU/GPU/APU trio, NewPlanner builds one over custom engines.
	Planner = plan.Planner
	// PlannerConfig configures a custom planner.
	PlannerConfig = plan.Config
	// PlannerStats is a dispatch-accounting snapshot.
	PlannerStats = plan.Stats
	// PlanPolicy selects the planner's objective.
	PlanPolicy = plan.Policy
	// EngineChoice is one ranked candidate from a planning decision.
	EngineChoice = plan.EngineChoice
	// PlanDecision is a full ranked planning decision.
	PlanDecision = plan.Decision
)

// Planner policies.
const (
	// PlanBalanced minimizes predicted joules among deadline-feasible
	// engines, falling back to the fastest when none is feasible.
	PlanBalanced = plan.PolicyBalanced
	// PlanLatency minimizes the load-adjusted ETA unconditionally.
	PlanLatency = plan.PolicyLatency
	// PlanEnergy minimizes predicted joules among feasible engines.
	PlanEnergy = plan.PolicyEnergy
)

// NewPlanner builds a planner over custom engines; each engine must
// implement a cost model (the built-in CPU, GPU and APU backends all
// do).
var NewPlanner = plan.New

// ParsePlanPolicy parses "balanced", "latency" or "energy" — the values
// the command-line tools accept for -plan-policy.
var ParsePlanPolicy = plan.ParsePolicy

// Key generation for the salted seed (and the algorithm-aware baseline).
type (
	// KeyGenerator derives a public key from a 32-byte seed.
	KeyGenerator = cryptoalg.KeyGenerator
	// AESKeyGenerator is the AES-128 response engine of prior RBC work.
	AESKeyGenerator = aeskg.Generator
	// SaberKeyGenerator is from-scratch LightSaber key generation.
	SaberKeyGenerator = saber.Generator
	// DilithiumKeyGenerator is from-scratch Dilithium3 key generation.
	DilithiumKeyGenerator = dilithium.Generator
)

// Networked protocol (Figure 1 over TCP).
type (
	// Server serves the protocol for a CA.
	Server = netproto.Server
	// Latency injects modelled communication costs.
	Latency = netproto.Latency
	// WireResult is the server's verdict as received by the client.
	WireResult = netproto.Result
	// WireStatus classifies server-reported failures on the wire.
	WireStatus = netproto.Status
	// ServerError is the client-side error carrying a WireStatus.
	ServerError = netproto.ServerError
	// Client is the routing-aware networked client: it owns connection
	// management, shard routing over a RingMap, redirect following and
	// retry across node restarts. Construct with Dial.
	Client = netproto.Client
	// ClientConfig configures Dial (bootstrap addresses and/or ring).
	ClientConfig = netproto.ClientConfig
	// ClientAuthRequest is one authentication through a Client: the
	// device-side PUFClient plus optional QoS class and deadline.
	ClientAuthRequest = netproto.AuthRequest
	// Router decides, per hello, whether this server owns the client's
	// shard or should redirect (Server.Router; see NewServer).
	Router = netproto.Router
)

// Dial builds a routing-aware Client from bootstrap addresses and/or a
// shard ring. Each Authenticate dials the owning node, follows
// wrong-shard redirects, and retries transport failures against the
// remaining candidates with backoff.
var Dial = netproto.Dial

// Wire status codes (the first byte of an error frame).
const (
	StatusInternal      = netproto.StatusInternal
	StatusBadRequest    = netproto.StatusBadRequest
	StatusUnknownClient = netproto.StatusUnknownClient
	StatusNoSession     = netproto.StatusNoSession
	StatusAlgMismatch   = netproto.StatusAlgMismatch
	StatusOverloaded    = netproto.StatusOverloaded
	StatusCancelled     = netproto.StatusCancelled
	// StatusDeadlineInfeasible: the request's deadline could not be met.
	StatusDeadlineInfeasible = netproto.StatusDeadlineInfeasible
	// StatusWrongShard: this node does not own the client's shard; the
	// message carries the owner's address. Client follows it
	// transparently.
	StatusWrongShard = netproto.StatusWrongShard
)

// PaperLatency reproduces the paper's 0.90 s communication constant.
var PaperLatency = netproto.PaperLatency

// Consistent-hash sharding (see DESIGN.md §14): client IDs map to a
// fixed shard space, shards map to nodes through a virtual-node ring,
// so topology changes move only the shards that must move.
type (
	// RingMap is an immutable shard-to-node assignment with a fencing
	// epoch; Add/Remove derive new maps.
	RingMap = ring.Map
	// RingNode is one CA node in the ring (ID + client-facing address).
	RingNode = ring.Node
)

// Sharding defaults.
const (
	// DefaultNumShards is the fixed shard-space size client IDs hash
	// into; it is topology-independent, so it must agree across nodes.
	DefaultNumShards = ring.DefaultNumShards
	// DefaultVirtualNodes is the vnode count per node on the ring.
	DefaultVirtualNodes = ring.DefaultVirtualNodes
)

var (
	// NewRingMap builds a ring from nodes (0 counts take the defaults).
	NewRingMap = ring.NewMap
	// ShardOfKey maps a client ID to its shard.
	ShardOfKey = ring.ShardOfKey
)

// Primary→follower WAL replication (see DESIGN.md §14): a follower
// holds a replica of a primary's durable state and can be promoted on
// failure, with epoch fencing against split-brain.
type (
	// ReplicaPrimary streams a durable State's WAL to subscribers.
	ReplicaPrimary = replica.Primary
	// ReplicaFollower subscribes to a primary and ingests its records.
	ReplicaFollower = replica.Follower
	// ReplicaFollowerConfig configures NewReplicaFollower.
	ReplicaFollowerConfig = replica.FollowerConfig
	// ReplicaFollowerStatus is one row of a primary's liveness table.
	ReplicaFollowerStatus = replica.FollowerStatus
	// ReplicaMeta is a node's persisted fencing epoch and replication
	// cursor.
	ReplicaMeta = replica.Meta
)

// PromoteNonceSlack is the challenge-nonce headroom a promotion adds so
// the new primary never reissues a nonce the dead one handed out.
const PromoteNonceSlack = replica.PromoteNonceSlack

var (
	// NewReplicaFollower builds a follower over a durable State.
	NewReplicaFollower = replica.NewFollower
	// LoadReplicaMeta reads a node's replication meta file (missing =
	// zero value).
	LoadReplicaMeta = replica.LoadMeta
	// SaveReplicaMeta atomically persists a replication meta file.
	SaveReplicaMeta = replica.SaveMeta
	// ErrFenced: a higher fencing epoch exists; this primary stood down.
	ErrFenced = replica.ErrFenced
	// ErrStalePrimary: the follower outranks the primary it dialed.
	ErrStalePrimary = replica.ErrStalePrimary
	// ErrPromoted: the follower stopped following because it was
	// promoted.
	ErrPromoted = replica.ErrPromoted
)

// Observability: dependency-free metrics and per-search tracing for the
// serving path (scheduler, backends, protocol server).
type (
	// MetricsRegistry is a named collection of counters, gauges and
	// latency histograms with a JSON snapshot export.
	MetricsRegistry = obs.Registry
	// TraceEvent is one step of a search's lifecycle (sched.enqueue,
	// search.shell, sched.done, ...), correlated by its Search ID.
	TraceEvent = obs.TraceEvent
	// TraceSink receives trace events; set it on SchedulerConfig.Trace,
	// CAConfig.Trace, or directly on a Task.
	TraceSink = obs.TraceSink
	// TraceRing is a fixed-capacity flight recorder keeping the most
	// recent trace events.
	TraceRing = obs.Ring
	// NetMetrics bundles the protocol server's per-connection and
	// per-status counters (Server.Metrics).
	NetMetrics = netproto.Metrics
)

var (
	// NewMetricsRegistry returns an empty registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewTraceRing returns a flight recorder retaining capacity events.
	NewTraceRing = obs.NewRing
	// NewNetMetrics registers the protocol server's counters in a
	// registry under "netproto.*".
	NewNetMetrics = netproto.NewMetrics
	// DebugHandler serves /metrics, /trace, /healthz and /debug/pprof
	// for a registry and an optional trace ring.
	DebugHandler = obs.Handler
	// ServeDebug starts DebugHandler on an address in the background,
	// returning the listener (rbc-server's -debug-addr).
	ServeDebug = obs.Serve
)
