// Command rbc-server runs an RBC-SALTED certificate authority over TCP.
//
// For demonstration it enrolls a set of simulated PUF clients at startup
// (deterministic from -enrollseed) and prints the device seeds so
// rbc-client instances can be pointed at them.
//
// Searches run through a bounded scheduler (-sched-workers concurrent
// searches, -sched-queue waiting) so a burst of clients degrades into
// fast "overloaded" rejections instead of an unbounded goroutine pile-up.
//
// # Replicated serving (DESIGN.md §14)
//
// A replication group is one primary and its followers, each holding
// every client. -repl-listen serves this node's write-ahead log to
// followers. `-role follower -follow addr` makes the node ingest a
// primary's WAL instead of being authoritative; on the primary's death
// it can be restarted with -role primary after a promotion (the fencing
// epoch in the data directory's replica.meta keeps the deposed primary
// from coming back as a split brain). Clients are given the group's
// addresses and fail over between them (see rbc-client).
//
// With -debug-addr set, a second listener serves operational endpoints:
// /metrics (counters, latency histograms and live scheduler stats as
// JSON), /trace (the most recent search trace events), /healthz, and
// /debug/pprof. Keep it on loopback or a management network — it is
// unauthenticated.
//
// Usage:
//
//	rbc-server -listen :7443 -clients alice,bob -maxd 3 -sched-workers 4 \
//	    -data-dir /var/lib/rbc -repl-listen :7543
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rbcsalted"
	"rbcsalted/internal/core"
	"rbcsalted/internal/durable"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/sched"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7443", "listen address")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /trace and /debug/pprof on this address (empty = off)")
	clients := flag.String("clients", "alice,bob", "comma-separated client ids to enroll")
	enrollSeed := flag.Uint64("enrollseed", 42, "deterministic enrollment seed base")
	maxD := flag.Int("maxd", 3, "maximum Hamming distance searched")
	timeLimit := flag.Duration("timelimit", 20*time.Second, "authentication threshold T")
	workers := flag.Int("workers", 0, "search worker goroutines (0 = GOMAXPROCS)")
	schedWorkers := flag.Int("sched-workers", sched.DefaultWorkers, "concurrent searches admitted by the scheduler")
	schedQueue := flag.Int("sched-queue", sched.DefaultQueueDepth, "scheduler admission-queue depth")
	inlineDepth := flag.Int("inline-depth", core.DefaultInlineDepth, "largest shell served inline without queuing (-1 = always queue)")
	traceDepth := flag.Int("trace-depth", 1024, "trace ring capacity (events kept for /trace)")
	storePath := flag.String("store", "", "load an rbc-enroll enrolment file instead of self-enrolling")
	keyHex := flag.String("key", strings.Repeat("00", 32), "master key for -store / -data-dir (64 hex chars)")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + snapshots); state survives restarts")
	syncMode := flag.String("sync", "interval", "WAL fsync policy for -data-dir: always|interval|never")
	baseError := flag.Float64("baseerror", 0, "PUF per-cell noise for self-enrolled demo clients (0 = default profile)")

	role := flag.String("role", "primary", "replication role: primary (authoritative) or follower (ingests -follow)")
	replListen := flag.String("repl-listen", "", "serve WAL replication to followers on this address (needs -data-dir)")
	follow := flag.String("follow", "", "with -role follower: primary replication address to ingest")
	flag.Parse()

	sync, err := durable.ParseSyncPolicy(*syncMode)
	if err != nil {
		log.Fatal(err)
	}
	key, err := parseKey(*keyHex)
	if err != nil {
		log.Fatal(err)
	}

	cfg := rbc.ServerConfig{
		Clients:      strings.Split(*clients, ","),
		EnrollSeed:   *enrollSeed,
		MaxDistance:  *maxD,
		TimeLimit:    *timeLimit,
		Cores:        *workers,
		SchedWorkers: *schedWorkers,
		SchedQueue:   *schedQueue,
		InlineDepth:  *inlineDepth,
		TraceDepth:   *traceDepth,
		DataDir:      *dataDir,
		Sync:         sync,
		MasterKey:    key,
		OnFenced: func(epoch uint64) {
			log.Printf("rbc-server: fenced by epoch %d — a promotion happened elsewhere; shut this node down", epoch)
		},
	}
	if *baseError > 0 {
		// Override only the typical-cell noise, as rbc-client does:
		// keeping DefaultProfile's flaky cells means enrollment still
		// sees (and TAPKI-masks) the same bad cells the client has.
		p := puf.DefaultProfile
		p.BaseError = *baseError
		cfg.PUFProfile = &p
	}
	if *storePath != "" {
		store, err := durable.LoadImages(*storePath, key)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s: %d enrolled client(s)\n", *storePath, store.Len())
		cfg.Store = store
		cfg.Clients = nil // images come from the store
	}

	node, err := rbc.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	if node.State != nil {
		rec := node.State.Recovery()
		fmt.Printf("rbc-server: data dir %s (%d enrolled; snapshot seq %d, %d records replayed",
			*dataDir, node.State.Images().Len(), rec.SnapshotSeq, rec.Records)
		if rec.Truncated {
			fmt.Printf(", torn tail repaired: %d bytes", rec.TornBytes)
		}
		fmt.Println(")")
	}
	for i, id := range cfg.Clients {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		devSeed := *enrollSeed + uint64(i)
		fmt.Printf("enrolled %q (device seed %d; run: rbc-client -id %s -devseed %d)\n",
			id, devSeed, id, devSeed)
	}

	if *debugAddr != "" {
		dln, err := node.DebugListener(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer dln.Close()
		fmt.Printf("rbc-server: debug endpoints on http://%s/metrics\n", dln.Addr())
	}

	// SIGINT/SIGTERM close the listeners; Serve returns, the deferred
	// node Close snapshots the durable state, and the process exits
	// cleanly. A SIGKILL skips all of that — which is exactly what the
	// WAL is for.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *replListen != "" {
		rln, err := net.Listen("tcp", *replListen)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rbc-server: replication listening on %s\n", rln.Addr())
		go func() {
			if err := node.ServeReplication(rln); err != nil {
				log.Printf("rbc-server: replication stopped: %v", err)
			}
		}()
		defer rln.Close()
	}
	if *follow != "" {
		if *role != "follower" {
			log.Fatal("rbc-server: -follow requires -role follower")
		}
		fmt.Printf("rbc-server: following primary at %s\n", *follow)
		go func() {
			if err := node.Follow(ctx, *follow, nil); err != nil && ctx.Err() == nil {
				log.Printf("rbc-server: follower stopped: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rbc-server: CA listening on %s (role %s, backend %s, d<=%d, T=%s)\n",
		ln.Addr(), *role, node.Pool.Name(), *maxD, *timeLimit)

	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	serveErr := node.Serve(ln)
	if ctx.Err() == nil && serveErr != nil {
		log.Fatal(serveErr)
	}
	fmt.Println("rbc-server: shutting down")
}

func parseKey(keyHex string) ([32]byte, error) {
	var key [32]byte
	raw, err := hex.DecodeString(keyHex)
	if err != nil || len(raw) != 32 {
		return key, fmt.Errorf("rbc-server: -key must be 64 hex chars")
	}
	copy(key[:], raw)
	return key, nil
}
