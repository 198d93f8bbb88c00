package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	rbc "rbcsalted"
	"rbcsalted/internal/core"
	"rbcsalted/internal/puf"
)

// maxDistance is the CA's search bound on every node (rbc-server's -maxd
// default); quick runs lower it so the impostor's full-ball search is
// milliseconds.
const maxDistance = 3

// fullPopulation is how many clients a full-size run enrols.
const fullPopulation = 4096

// population is the enrolled client set: zero-error devices, so a
// request's Hamming distance is exactly the noise the generator injects.
type population struct {
	clients []*core.Client
	images  []*puf.Image
}

func newPopulation(seed uint64, n int) (*population, error) {
	p := &population{clients: make([]*core.Client, n), images: make([]*puf.Image, n)}
	for i := range p.clients {
		dev, err := puf.NewDevice(seed<<20+uint64(i), 1024, puf.Profile{})
		if err != nil {
			return nil, err
		}
		if p.images[i], err = puf.Enroll(dev, 3); err != nil {
			return nil, err
		}
		p.clients[i] = &core.Client{ID: core.ClientID(fmt.Sprintf("c%05d", i)), Device: dev}
	}
	return p, nil
}

// cluster is one assembled system under test: a primary served on
// loopback TCP and, on durable workloads, a follower replicating it.
type cluster struct {
	primary  *rbc.ServerNode
	follower *rbc.ServerNode // nil on memory-only workloads
	store    *rbc.ImageStore // the primary's image store
	rec      *recorder
	addr     string
	maxd     int

	// The cluster owns both listeners and closes them itself: the nodes
	// learn of a listener only once their Serve goroutine runs, so closing
	// through them can miss a listener that is not registered yet.
	ln, replLn net.Listener

	dirs       []string
	primaryDir string
	stopped    bool
	served     chan error
	replicated chan error
	followed   chan struct{} // closed when Follow returns followErr
	followErr  error
	stopFollow context.CancelFunc
}

// startCluster builds the node(s), enrols the population, starts serving
// and waits for the follower to hold everything. Its duration is the
// system's set-up time.
func startCluster(w workload, pop *population, dataRoot string, maxd int) (c *cluster, err error) {
	c = &cluster{rec: newRecorder(), maxd: maxd}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	cfg := rbc.ServerConfig{MaxDistance: maxd, Backend: rbc.BackendCPU}
	if w.durable {
		// The follower comes first: the host batch-phase histograms are
		// process-global and the last node built owns them, which must
		// be the primary.
		//
		// The follower keeps ServerConfig's default fsync policy (a
		// background fsync every 100 ms). A deployed follower has a disk of
		// its own; here it shares the primary's, and fsyncing per replicated
		// record would double the load on the one journal the measured
		// fsyncs wait in.
		fcfg := rbc.ServerConfig{MaxDistance: maxd, Backend: rbc.BackendCPU}
		if fcfg.DataDir, err = c.tempDir(dataRoot, "follower"); err != nil {
			return c, err
		}
		if c.follower, err = rbc.NewServer(fcfg); err != nil {
			return c, err
		}
		if cfg.DataDir, err = c.tempDir(dataRoot, "primary"); err != nil {
			return c, err
		}
		cfg.Sync = rbc.SyncAlways
		c.primaryDir = cfg.DataDir
	} else {
		if cfg.Store, err = rbc.NewImageStore([32]byte{0x52, 0x42, 0x43}); err != nil {
			return c, err
		}
	}
	if c.primary, err = rbc.NewServer(cfg); err != nil {
		return c, err
	}
	c.store = cfg.Store
	if st := c.primary.State; st != nil {
		c.store = st.Images()
		j := timedJournal{next: st, rec: c.rec}
		st.Images().SetJournal(j)
		st.RA().SetJournal(j)
		st.Sessions().SetJournal(j)

		if c.replLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return c, err
		}
		replLn := c.replLn
		c.replicated = make(chan error, 1)
		go func() { c.replicated <- c.primary.ServeReplication(replLn) }()
		ctx, cancel := context.WithCancel(context.Background())
		c.stopFollow = cancel
		c.followed = make(chan struct{})
		go func() {
			c.followErr = c.follower.Follow(ctx, replLn.Addr().String(), nil)
			close(c.followed)
		}()
	}
	for i, cl := range pop.clients {
		if err := c.primary.CA.Enroll(cl.ID, pop.images[i]); err != nil {
			return c, err
		}
	}
	if c.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return c, err
	}
	ln := c.ln
	c.addr = ln.Addr().String()
	c.served = make(chan error, 1)
	go func() { c.served <- c.primary.Serve(tracedListener{Listener: ln, rec: c.rec}) }()
	if _, err := c.awaitFollower(30 * time.Second); err != nil {
		return c, err
	}
	return c, nil
}

func (c *cluster) tempDir(root, role string) (string, error) {
	dir, err := os.MkdirTemp(root, "rbcbench-"+role+"-")
	if err == nil {
		c.dirs = append(c.dirs, dir)
	}
	return dir, err
}

// lag is how many journal records the follower has yet to acknowledge.
func (c *cluster) lag() (records uint64, ok bool) {
	rp := c.primary.Replica()
	if rp == nil {
		return 0, false
	}
	fs := rp.Followers()
	if len(fs) == 0 {
		return 0, false
	}
	last := c.primary.State.LastSeq()
	return last - min(fs[0].Acked, last), true
}

// awaitFollower waits until the follower holds every record the primary
// has journaled and returns how long that took. The follower re-sequences
// records into its own log, so equal sequence numbers mean equal logs
// unless a snapshot transfer intervened; the acknowledged cursor, which
// trails by the ack interval, covers that case.
func (c *cluster) awaitFollower(limit time.Duration) (time.Duration, error) {
	if c.follower == nil {
		return 0, nil
	}
	start := time.Now()
	for {
		if c.follower.State.LastSeq() == c.primary.State.LastSeq() {
			return time.Since(start), nil
		}
		if lag, ok := c.lag(); ok && lag == 0 {
			return time.Since(start), nil
		}
		select {
		case <-c.followed:
			return 0, fmt.Errorf("follower stopped: %v", c.followErr)
		default:
		}
		if time.Since(start) > limit {
			return 0, fmt.Errorf("follower at seq %d after %s, primary at %d",
				c.follower.State.LastSeq(), limit, c.primary.State.LastSeq())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// converged checks the replication gate after a workload: the follower
// caught up and a sample of its RA keys equals the primary's.
//
// The follower journals a replicated record before it applies it, so for
// a moment after the logs agree its registry can still lack the last
// record. A key that differs is therefore re-read for a bounded time: an
// apply in flight lands within microseconds, a lost or misapplied record
// stays different and fails the gate.
func (c *cluster) converged(pop *population, sample int) error {
	if _, err := c.awaitFollower(10 * time.Second); err != nil || c.follower == nil {
		return err
	}
	step := max(len(pop.clients)/sample, 1)
	deadline := time.Now().Add(time.Second)
	for i := 0; i < len(pop.clients); i += step {
		id := pop.clients[i].ID
		for {
			pk, _ := c.primary.State.RA().PublicKey(id)
			fk, _ := c.follower.State.RA().PublicKey(id)
			if bytes.Equal(pk, fk) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower RA key for %s differs from the primary's", id)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// stop ends serving and replication, waits for every goroutine the
// cluster started and closes both nodes (each takes its shutdown
// snapshot). The data directories stay until close.
func (c *cluster) stop() error {
	if c.stopped {
		return nil
	}
	c.stopped = true
	var errs []error
	if c.stopFollow != nil {
		c.stopFollow()
		<-c.followed
	}
	if c.served != nil {
		errs = append(errs, c.ln.Close(), <-c.served)
	}
	if c.replicated != nil {
		// Closing an already-closed listener is what the node's own close
		// does next; only the first close's error says anything.
		errs = append(errs, c.replLn.Close(), <-c.replicated)
	}
	if c.primary != nil {
		errs = append(errs, c.primary.Close())
	}
	if c.follower != nil {
		errs = append(errs, c.follower.Close())
	}
	return errors.Join(errs...)
}

// close stops the cluster and removes its data directories.
func (c *cluster) close() error {
	errs := []error{c.stop()}
	for _, dir := range c.dirs {
		errs = append(errs, os.RemoveAll(dir))
	}
	return errors.Join(errs...)
}
