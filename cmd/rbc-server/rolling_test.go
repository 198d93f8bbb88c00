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

// drillNode is one member of the in-process replication group: a
// durable ServerNode, restartable in place on its data directory. The
// primary serves clients and replication on fixed addresses; a follower
// follows the primary's replication address.
type drillNode struct {
	node *rbc.ServerNode
	dir  string
}

// TestRollingRestartDrill is the gating smoke drill for the replicated
// CA: a durable primary and two followers, with clients dialing the
// primary under continuous authentication load while each node in turn
// is stopped and restarted on its data directory. The client must ride
// out every restart — zero failed authentications — by redialing the
// primary once it returns, and at the end both followers must have
// converged on the primary's RA keys.
func TestRollingRestartDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node restart drill")
	}

	const (
		numFollowers = 2
		numClients   = 9
	)
	clientIDs := make([]string, numClients)
	for i := range clientIDs {
		clientIDs[i] = fmt.Sprintf("c%02d", i)
	}

	// Fixed addresses first, so restarts land on the same ones.
	listen := func(addr string) net.Listener {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		return ln
	}
	protoLn, replLn := listen("127.0.0.1:0"), listen("127.0.0.1:0")
	addr, repl := protoLn.Addr().String(), replLn.Addr().String()

	// start opens node i (0 is the primary) on its data directory. The
	// primary serves clients on protoLn and replication on replLn; a
	// follower follows repl until its node closes.
	start := func(i int, dir string, protoLn, replLn net.Listener) *drillNode {
		cfg := rbc.ServerConfig{
			EnrollSeed:   42,
			MaxDistance:  3,
			TimeLimit:    20 * time.Second,
			Cores:        2,
			SchedWorkers: 2,
			SchedQueue:   32,
			PUFProfile:   &quietProfile,
			DataDir:      dir,
		}
		if i == 0 {
			cfg.Clients = clientIDs
		}
		node, err := rbc.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			go node.ServeReplication(replLn)
			go node.Serve(protoLn)
		} else {
			go node.Follow(context.Background(), repl, nil)
		}
		return &drillNode{node: node, dir: dir}
	}
	group := make([]*drillNode, 1+numFollowers)
	group[0] = start(0, t.TempDir(), protoLn, replLn)
	for i := 1; i < len(group); i++ {
		group[i] = start(i, t.TempDir(), nil, nil)
	}
	defer func() {
		for _, d := range group {
			d.node.Close()
		}
	}()

	// The load fleet: one client per enrolled device, dialing the
	// primary and looping authentications until told to stop. Any error
	// is a dropped auth.
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
			Addrs: []string{addr},
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

	// Let the fleet warm up, then roll every node, the followers first:
	// stop it, hold it down briefly mid-load, restart it.
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
	for _, i := range []int{1, 2, 0} {
		group[i].node.Close()
		time.Sleep(20 * time.Millisecond) // in-flight requests hit the dead node
		if i == 0 {
			group[0] = start(0, group[0].dir, listen(addr), listen(repl))
		} else {
			group[i] = start(i, group[i].dir, nil, nil)
		}
		// The group must make progress after every restart before the
		// next node goes down.
		waitAuths(okCount.Load() + int64(numClients))
	}

	stop.Store(true)
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Errorf("dropped authentication: %v", err)
	}

	// Every follower converges on the primary's RA keys.
	primaryRA := group[0].node.State.RA()
	converged := func(f *drillNode) bool {
		for _, id := range clientIDs {
			want, _ := primaryRA.PublicKey(core.ClientID(id))
			got, ok := f.node.State.RA().PublicKey(core.ClientID(id))
			if !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	for i, f := range group[1:] {
		deadline := time.Now().Add(30 * time.Second)
		for !converged(f) {
			if time.Now().After(deadline) {
				t.Fatalf("follower %d never converged on the primary's RA keys", i+1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Logf("rolling drill: %d authentications, 0 dropped, %d restarts", okCount.Load(), len(group))
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
