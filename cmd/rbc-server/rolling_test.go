package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbcsalted"
	"rbcsalted/internal/core"
	"rbcsalted/internal/puf"
)

// drillNode is one member of the in-process CA group: a ServerNode plus
// the listener serving it, restartable in place on a fixed address.
type drillNode struct {
	node *rbc.ServerNode
	ln   net.Listener
	addr string
}

func (d *drillNode) stop() {
	d.node.Proto.Close()
	d.node.Close()
}

// TestRollingRestartDrill is the gating smoke drill for the scaled-out
// CA: three routed nodes serve a continuous authentication load while
// each node in turn is stopped and restarted on its address. The
// routing client must ride out every restart — zero failed
// authentications — by failing over to the surviving nodes' redirects
// and redialing the owner once it returns.
func TestRollingRestartDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node restart drill")
	}

	const (
		numNodes   = 3
		numClients = 9
	)
	clientIDs := make([]string, numClients)
	for i := range clientIDs {
		clientIDs[i] = fmt.Sprintf("c%02d", i)
	}

	// Fixed addresses first, so the ring can be built before any server
	// and restarts land on the same address.
	listeners := make([]net.Listener, numNodes)
	nodes := make([]rbc.RingNode, numNodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		nodes[i] = rbc.RingNode{ID: fmt.Sprintf("ca%d", i), Addr: ln.Addr().String()}
	}
	ringMap, err := rbc.NewRingMap(0, 0, nodes...)
	if err != nil {
		t.Fatal(err)
	}

	start := func(i int, ln net.Listener) *drillNode {
		node, err := rbc.NewServer(rbc.ServerConfig{
			Clients:      clientIDs,
			EnrollSeed:   42,
			MaxDistance:  3,
			TimeLimit:    20 * time.Second,
			Cores:        2,
			SchedWorkers: 2,
			SchedQueue:   32,
			PUFProfile:   &quietProfile,
			NodeID:       nodes[i].ID,
			Ring:         ringMap,
		})
		if err != nil {
			t.Fatal(err)
		}
		go node.Serve(ln)
		return &drillNode{node: node, ln: ln, addr: ln.Addr().String()}
	}
	group := make([]*drillNode, numNodes)
	for i, ln := range listeners {
		group[i] = start(i, ln)
	}
	defer func() {
		for _, d := range group {
			d.stop()
		}
	}()

	// The load fleet: one routing client per enrolled device, looping
	// authentications until told to stop. Any error is a dropped auth.
	addrs := make([]string, numNodes)
	for i, n := range nodes {
		addrs[i] = n.Addr
	}
	var (
		stop     atomic.Bool
		okCount  atomic.Int64
		wg       sync.WaitGroup
		failures = make(chan error, numClients)
	)
	for i, id := range clientIDs {
		dev, err := puf.NewDevice(42+uint64(i), 1024, quietProfile)
		if err != nil {
			t.Fatal(err)
		}
		device := &rbc.PUFClient{ID: core.ClientID(id), Device: dev}
		client, err := rbc.Dial(rbc.ClientConfig{
			Addrs: addrs,
			Ring:  ringMap,
			// Generous retry budget: a restart window must be shorter
			// than the total backoff the client is willing to spend.
			MaxAttempts:  12,
			RetryBackoff: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.Close()
			for !stop.Load() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := client.Authenticate(ctx, rbc.ClientAuthRequest{Device: device})
				cancel()
				if err != nil {
					failures <- fmt.Errorf("%s: %w", device.ID, err)
					return
				}
				if !res.Authenticated {
					failures <- fmt.Errorf("%s: denied", device.ID)
					return
				}
				okCount.Add(1)
			}
		}()
	}

	// Let the fleet warm up, then roll every node: stop it, hold it down
	// briefly mid-load, restart it on the same address.
	waitAuths := func(target int64) {
		deadline := time.Now().Add(60 * time.Second)
		for okCount.Load() < target && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if okCount.Load() < target {
			t.Fatalf("load stalled at %d authentications", okCount.Load())
		}
	}
	waitAuths(int64(numClients))
	for i := range group {
		group[i].stop()
		time.Sleep(20 * time.Millisecond) // in-flight requests hit the dead node
		ln, err := net.Listen("tcp", group[i].addr)
		if err != nil {
			t.Fatalf("rebind %s: %v", group[i].addr, err)
		}
		group[i] = start(i, ln)
		// The group must make progress after every restart before the
		// next node goes down, or two nodes could overlap in downtime.
		waitAuths(okCount.Load() + int64(numClients))
	}

	stop.Store(true)
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Errorf("dropped authentication: %v", err)
	}
	t.Logf("rolling drill: %d authentications, 0 dropped, %d restarts", okCount.Load(), numNodes)
}

// TestKillPromoteFailover drives the primary→standby failover end to
// end through the public API: a primary CA serves authentications and
// streams its WAL to a standby; the primary dies; the standby is
// promoted and must (a) hold every acknowledged key rotation, (b) serve
// fresh authentications for the replicated enrollments, and (c) fence
// the deposed primary's epoch.
func TestKillPromoteFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("two-node failover drill")
	}

	clientIDs := []string{"f0", "f1", "f2", "f3", "f4", "f5"}
	primary, err := rbc.NewServer(rbc.ServerConfig{
		Clients:      clientIDs,
		EnrollSeed:   4242,
		MaxDistance:  3,
		TimeLimit:    20 * time.Second,
		SchedWorkers: 2,
		SchedQueue:   16,
		PUFProfile:   &quietProfile,
		DataDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	standbyDir := t.TempDir()
	standby, err := rbc.NewServer(rbc.ServerConfig{
		MaxDistance:  3,
		TimeLimit:    20 * time.Second,
		SchedWorkers: 2,
		SchedQueue:   16,
		DataDir:      standbyDir,
		NodeID:       "standby",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()

	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go primary.ServeReplication(replLn)
	followCtx, cancelFollow := context.WithCancel(context.Background())
	defer cancelFollow()
	followDone := make(chan error, 1)
	go func() {
		followDone <- standby.Follow(followCtx, replLn.Addr().String(), nil)
	}()

	protoLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go primary.Serve(protoLn)

	// Load: every client authenticates; each acknowledged success
	// rotates that client's key in the primary's RA.
	loadClient, err := rbc.Dial(rbc.ClientConfig{Addrs: []string{protoLn.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer loadClient.Close()
	acked := make(map[string][]byte)
	for i, id := range clientIDs {
		dev, err := puf.NewDevice(4242+uint64(i), 1024, quietProfile)
		if err != nil {
			t.Fatal(err)
		}
		res, err := loadClient.Authenticate(context.Background(), rbc.ClientAuthRequest{
			Device: &rbc.PUFClient{ID: core.ClientID(id), Device: dev},
		})
		if err != nil || !res.Authenticated {
			t.Fatalf("%s: %+v, %v", id, res, err)
		}
		acked[id] = res.PublicKey
	}

	// Replication is asynchronous: the drill waits for the standby to
	// ack everything the primary journaled, which is the point at which
	// "acknowledged" and "replicated" coincide.
	deadline := time.Now().Add(30 * time.Second)
	for {
		p := primary.Replica()
		if p != nil {
			fs := p.Followers()
			if len(fs) == 1 && fs[0].Acked >= primary.State.LastSeq() {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the primary and promote the standby.
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	epoch, err := standby.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("promotion did not advance the fencing epoch")
	}
	select {
	case err := <-followDone:
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, rbc.ErrPromoted) {
			t.Fatalf("follow loop: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follow loop did not exit after promotion")
	}

	// (a) No acknowledged key rotation was lost.
	for id, key := range acked {
		got, ok := standby.State.RA().PublicKey(core.ClientID(id))
		if !ok {
			t.Fatalf("standby lost %s", id)
		}
		if !bytes.Equal(got, key) {
			t.Fatalf("standby key for %s diverged from the acknowledged rotation", id)
		}
	}

	// (b) The promoted node serves the replicated enrollments: a client
	// device authenticates against it and rotates its key again.
	newLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go standby.Serve(newLn)
	defer standby.Proto.Close()
	dev, err := puf.NewDevice(4242, 1024, quietProfile)
	if err != nil {
		t.Fatal(err)
	}
	client, err := rbc.Dial(rbc.ClientConfig{Addrs: []string{newLn.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := client.Authenticate(ctx, rbc.ClientAuthRequest{
		Device: &rbc.PUFClient{ID: "f0", Device: dev},
	})
	if err != nil || !res.Authenticated {
		t.Fatalf("post-failover auth: %+v, %v", res, err)
	}
	if bytes.Equal(res.PublicKey, acked["f0"]) {
		t.Fatal("post-failover authentication did not rotate the key")
	}

	// (c) The promotion's fencing epoch is durable, so a deposed primary
	// coming back can never outrank this node.
	meta, err := rbc.LoadReplicaMeta(filepath.Join(standbyDir, "replica.meta"))
	if err != nil || meta.Epoch != epoch {
		t.Fatalf("promoted meta = %+v, %v; want epoch %d", meta, err, epoch)
	}
}
