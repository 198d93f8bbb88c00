// Authserver: the full networked protocol of Figure 1 on loopback TCP -
// a CA server with an encrypted image store on one side, a noisy
// PUF-equipped client on the other, including an impostor attempt and a
// deliberately noise-injected session.
//
// The CA searches through rbc.NewScheduler, the bounded admission pool a
// serving deployment would use, and the whole stack is instrumented the
// way rbc-server's -debug-addr surface is: a metrics registry shared by
// the scheduler and the protocol server, plus a trace ring recording
// each search's lifecycle. The run ends with the scheduler statistics,
// the netproto counters, and the recorded trace of the impostor search.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"rbcsalted"
)

func main() {
	// Server side: enroll alice's PUF image.
	profile := rbc.PUFProfile{BaseError: 0.5 / 256.0, FlakyFraction: 0.05, FlakyError: 0.35}
	aliceDev, err := rbc.NewPUFDevice(7, 1024, profile)
	if err != nil {
		log.Fatal(err)
	}
	aliceImage, err := rbc.EnrollPUF(aliceDev, 31)
	if err != nil {
		log.Fatal(err)
	}
	store, err := rbc.NewImageStore([32]byte{0xAA})
	if err != nil {
		log.Fatal(err)
	}
	// The scheduler bounds concurrent searches (it is itself a Backend);
	// beyond Workers running and QueueDepth waiting, authentications are
	// shed with rbc.ErrOverloaded -> wire status "overloaded", and
	// infeasible deadlines are refused up front with
	// rbc.ErrDeadlineInfeasible -> "deadline-infeasible". A search whose
	// backend flight runs past the observed p95 service time is handed
	// off past the shells it finished to the backend's alternate engine.
	// One registry and one trace ring observe the whole serving path:
	// the scheduler records per-class queue/service histograms and
	// lifecycle events, the backend adds per-shell search events, the
	// protocol server counts connections and statuses.
	reg := rbc.NewMetricsRegistry()
	ring := rbc.NewTraceRing(256)
	pool := rbc.NewScheduler(&rbc.CPUBackend{Alg: rbc.SHA3},
		rbc.SchedulerConfig{Workers: 2, QueueDepth: 8, Trace: ring, Metrics: reg,
			Hedge: rbc.HedgeConfig{Enabled: true}})
	defer pool.Close()
	ca, err := rbc.NewCA(store, pool, &rbc.AESKeyGenerator{},
		rbc.NewRA(), rbc.CAConfig{MaxDistance: 2, Trace: ring})
	if err != nil {
		log.Fatal(err)
	}
	if err := ca.Enroll("alice", aliceImage); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := &rbc.Server{CA: ca, Metrics: rbc.NewNetMetrics(reg)}
	go server.Serve(ln)
	defer server.Close()
	fmt.Printf("CA listening on %s\n", ln.Addr())

	// The client side goes through rbc.Dial — the routing-aware Client
	// that owns dialing, redirects and retry. On a single node it simply
	// dials the one address; against a sharded deployment the same code
	// routes by client ID and follows wrong-shard redirects.
	netClient, err := rbc.Dial(rbc.ClientConfig{Addrs: []string{ln.Addr().String()}})
	if err != nil {
		log.Fatal(err)
	}
	defer netClient.Close()
	authenticate := func(label string, device *rbc.PUFClient, req rbc.ClientAuthRequest) {
		req.Device = device
		res, err := netClient.Authenticate(context.Background(), req)
		if err != nil {
			fmt.Printf("%-28s rejected by server: %v\n", label, err)
			return
		}
		fmt.Printf("%-28s authenticated=%v search=%.3fs\n",
			label, res.Authenticated, res.SearchSeconds)
	}

	// 1. Alice with her real PUF: should authenticate. A quiet PUF lands
	//    at d<=1, so the CA resolves this session on the inline fast path
	//    without it ever entering the scheduler queue.
	authenticate("alice (genuine PUF):", &rbc.PUFClient{ID: "alice", Device: aliceDev},
		rbc.ClientAuthRequest{})

	// 2. Alice again with extra injected noise (the paper's §5 security
	//    knob): still authenticates at a deeper Hamming distance. The
	//    client marks the session batch-class with a generous deadline,
	//    both riding in the v3 hello; they only take effect if the search
	//    escalates past the inline depth, which d=1 does not - the options
	//    are free on the fast path.
	authenticate("alice (+1 noise bit):", &rbc.PUFClient{ID: "alice", Device: aliceDev, NoiseBits: 1},
		rbc.ClientAuthRequest{Class: rbc.ClassBatch, Deadline: time.Now().Add(30 * time.Second)})

	// 3. Mallory answering alice's challenge with a different PUF: the
	//    exhaustive d=2 impostor search is exactly the d-large tail the
	//    serving path pushes out of the interactive lane, so the client
	//    self-declares background class. It escalates into the scheduler
	//    (d=2 > inline depth), exhausts the ball, and the CA refuses.
	malloryDev, err := rbc.NewPUFDevice(666, 1024, rbc.DefaultPUFProfile)
	if err != nil {
		log.Fatal(err)
	}
	authenticate("mallory (wrong PUF):", &rbc.PUFClient{ID: "alice", Device: malloryDev},
		rbc.ClientAuthRequest{Class: rbc.ClassBackground})

	// Both genuine sessions resolved inline at d<=1, so they never show
	// up in the scheduler's Submitted count - only the escalated
	// impostor search does.
	st := pool.Stats()
	fmt.Printf("\nscheduler: %d submitted, %d completed, %d rejected (inline sessions bypass it)\n",
		st.Submitted, st.Completed, st.Rejected)
	fmt.Printf("           avg queue wait %s, avg service %s (max %s)\n",
		st.AvgQueueWait(), st.AvgService(), st.ServiceMax)
	fmt.Printf("           by class: interactive=%d batch=%d background=%d\n",
		st.ByClass[rbc.ClassInteractive].Submitted,
		st.ByClass[rbc.ClassBatch].Submitted,
		st.ByClass[rbc.ClassBackground].Submitted)

	snap := reg.Snapshot()
	fmt.Printf("netproto:  %v conns, %v ok, %v denied\n",
		snap["netproto.conns_accepted"], snap["netproto.auth_ok"], snap["netproto.auth_denied"])

	// The trace ring is the flight recorder rbc-server serves at /trace.
	// Replay the impostor's search: its exhausted shells are all there.
	events := ring.Snapshot()
	last := events[len(events)-1].Search
	fmt.Println("\ntrace of the impostor search:")
	for _, ev := range events {
		if ev.Search != last {
			continue
		}
		fmt.Printf("  %-13s backend=%q detail=%q d=%d n=%d\n",
			ev.Kind, ev.Backend, ev.Detail, ev.Depth, ev.N)
	}
}
