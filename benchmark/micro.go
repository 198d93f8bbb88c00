package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"rbcsalted/internal/bitslice"
	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/netproto"
	"rbcsalted/internal/obs"
)

// Micro-timings call one layer's public function directly, on inputs
// taken from the workload (its image store, its clients, a challenge as
// the CA builds it). They price the steps of a request that no span
// separates, and the kernel phases below the search.

// timeOp returns the median over five batches of f's mean nanoseconds
// per call, each batch sized to last about 20 ms.
func timeOp(f func()) float64 {
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if time.Since(start) >= 20*time.Millisecond {
			break
		}
		reps *= 2
	}
	batches := make([]float64, 5)
	for b := range batches {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		batches[b] = float64(time.Since(start)) / float64(reps)
	}
	return median(batches)
}

// micro holds the micro-timed costs, in nanoseconds unless named.
type micro struct {
	respond, codec, imageGet, addrmap, keygen, scalarHash   float64
	matchPerSeed, fillPerSeed, packPerSeed, compressPerSeed float64
	seedsPerSecW1, seedsPerSecWN                            float64
}

// tapkiThreshold is the CA's default TAPKI masking threshold, which the
// benchmark's nodes run with.
const tapkiThreshold = 0.2

func runMicro(pop *population, store *core.ImageStore, scalingShell int) (micro, error) {
	var m micro
	client := pop.clients[0]
	image, err := store.Get(client.ID)
	if err != nil {
		return m, err
	}
	addr, err := image.SelectAddressMap(tapkiThreshold, 1)
	if err != nil {
		return m, err
	}
	ch := core.Challenge{Nonce: 1, AddressMap: addr, Alg: core.SHA3}
	base, err := image.Seed(addr)
	if err != nil {
		return m, err
	}
	client.NoiseBits = 0
	digest, err := client.Respond(ch)
	if err != nil {
		return m, err
	}

	m.respond = timeOp(func() { _, _ = client.Respond(ch) })

	keygen := &aeskg.Generator{}
	salted := core.SaltSeed(base, core.DefaultSaltRotation).Bytes()
	m.keygen = timeOp(func() { _ = keygen.PublicKey(salted) })
	m.scalarHash = timeOp(func() { _ = core.HashSeed(core.SHA3, base) })

	// One authentication's four messages, each encoded, framed, unframed
	// and decoded once: the work both ends do between them.
	var buf bytes.Buffer
	hello := netproto.Hello{ClientID: string(client.ID)}
	wireCh := netproto.Challenge{Nonce: ch.Nonce, Alg: byte(ch.Alg), AddressMap: addr}
	digestMsg := netproto.DigestMsg{Nonce: ch.Nonce, Digest: digest.Bytes()}
	result := netproto.Result{Authenticated: true, PublicKey: keygen.PublicKey(salted)}
	roundTrip := func(typ byte, payload []byte) ([]byte, error) {
		if err := netproto.WriteFrame(&buf, typ, payload); err != nil {
			return nil, err
		}
		got, p, err := netproto.ReadFrame(&buf)
		if err == nil && got != typ {
			err = fmt.Errorf("frame type %d read back as %d", typ, got)
		}
		return p, err
	}
	codec := func() error {
		buf.Reset()
		p, err := roundTrip(netproto.MsgHello, netproto.EncodeHello(hello))
		if err == nil {
			_, err = netproto.DecodeHello(p)
		}
		if err == nil {
			p, err = netproto.EncodeChallenge(wireCh)
		}
		if err == nil {
			p, err = roundTrip(netproto.MsgChallenge, p)
		}
		if err == nil {
			_, err = netproto.DecodeChallenge(p)
		}
		if err == nil {
			p, err = roundTrip(netproto.MsgDigest, netproto.EncodeDigest(digestMsg))
		}
		if err == nil {
			_, err = netproto.DecodeDigest(p)
		}
		if err == nil {
			p, err = roundTrip(netproto.MsgResult, netproto.EncodeResult(result))
		}
		if err == nil {
			_, err = netproto.DecodeResult(p)
		}
		return err
	}
	if err := codec(); err != nil {
		return m, err
	}
	m.codec = timeOp(func() { _ = codec() })

	// The store is several times the last-level cache, so walking the
	// whole population makes every Get the cold unseal a request pays.
	next := 0
	m.imageGet = timeOp(func() {
		_, _ = store.Get(pop.clients[next%len(pop.clients)].ID)
		next++
	})
	nonce := uint64(0)
	m.addrmap = timeOp(func() {
		nonce++
		if a, err := image.SelectAddressMap(tapkiThreshold, nonce); err == nil {
			_, _ = image.Seed(a)
		}
	})

	// The match kernel as a search runs it: one exhaustive d=2 shell on
	// one worker with the calibrated kernel. The base's own digest is the
	// target, so every candidate is hashed and rejected. The batch-phase
	// hooks are process-global; no node is searching while this runs.
	target := core.HashSeed(core.SHA3, base)
	factory := core.HashMatcherFactory(core.SHA3, target)
	phases := core.RegisterHostBatchMetrics(obs.NewRegistry())
	prev := core.SetHostBatchMetrics(phases)
	var shellSeeds, shells uint64
	var shellErr error
	perShell := timeOp(func() {
		_, _, covered, _, err := core.SearchShellHost(context.Background(), base, 2, iterseq.GrayCode,
			1, core.DefaultCheckInterval, true, time.Time{}, factory)
		shellSeeds, shells = covered, shells+1
		if err != nil {
			shellErr = err
		}
	})
	core.SetHostBatchMetrics(prev)
	if shellErr != nil || shellSeeds == 0 {
		return m, fmt.Errorf("match micro-timing covered %d seeds: %v", shellSeeds, shellErr)
	}
	m.matchPerSeed = perShell / float64(shellSeeds)
	m.fillPerSeed = phases.Fill.Snapshot().Sum / float64(shellSeeds*shells)
	m.packPerSeed = phases.Pack.Snapshot().Sum / float64(shellSeeds*shells)

	var eng bitslice.Engine
	var msg [4]bitslice.Slice256
	m.compressPerSeed = timeOp(func() { msg = eng.SHA3Msg256WideSliced(&msg) }) / bitslice.Width256

	// Host scaling: the backend over one exhaustive shell at one worker
	// and at every core.
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b := &cpu.Backend{Alg: core.SHA3, Workers: workers}
		res, err := b.Search(context.Background(), core.Task{
			Base: base, Target: target, MinDistance: scalingShell, MaxDistance: scalingShell, Exhaustive: true,
		})
		if err != nil || res.WallSeconds == 0 {
			return m, fmt.Errorf("scaling search with %d workers: %v", workers, err)
		}
		rate := float64(res.SeedsCovered) / res.WallSeconds
		if workers == 1 {
			m.seedsPerSecW1 = rate
		}
		m.seedsPerSecWN = rate
	}
	return m, nil
}

// computedBytesPerSeed is the 256-lane Keccak state's traffic per seed,
// computed from its layout rather than measured: every round reads and
// writes the whole state once, and one state carries 256 seeds.
func computedBytesPerSeed() float64 {
	const rounds, readAndWrite = 24, 2
	return float64(unsafe.Sizeof(bitslice.KeccakState256{})) * rounds * readAndWrite / bitslice.Width256
}
