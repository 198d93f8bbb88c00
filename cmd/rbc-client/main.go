// Command rbc-client authenticates against an rbc-server using a
// simulated PUF device.
//
// -server accepts one address or a comma-separated list of a replication
// group's addresses; the client dials the first, retries transport
// failures against the others, and stays on the one that last served
// it — so it rides out a rolling restart or a failover of the group.
//
// Usage:
//
//	rbc-client -server 127.0.0.1:7443,127.0.0.1:7444 -id alice -devseed 42 -noise 2
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"rbcsalted"
	"rbcsalted/internal/core"
	"rbcsalted/internal/puf"
)

func main() {
	server := flag.String("server", "127.0.0.1:7443", "server address, or a comma-separated list of a replication group's addresses")
	id := flag.String("id", "alice", "client id")
	devSeed := flag.Uint64("devseed", 42, "PUF device seed (must match the server's enrollment)")
	noise := flag.Int("noise", 0, "deliberately injected noise bits")
	paperComm := flag.Bool("papercomm", false, "inject the paper's 0.90s communication latency")
	baseError := flag.Float64("baseerror", puf.DefaultProfile.BaseError,
		"per-read cell flip probability (must match enrollment)")
	class := flag.String("class", "", "QoS class sent in the hello: interactive|batch|background (empty = interactive)")
	deadline := flag.Duration("deadline", 0, "abandon the request after this long; sent to the server as an absolute deadline (0 = none)")
	flag.Parse()

	qos, err := core.ParseClass(*class)
	if err != nil {
		log.Fatal(err)
	}

	profile := puf.DefaultProfile
	profile.BaseError = *baseError
	dev, err := puf.NewDevice(*devSeed, 1024, profile)
	if err != nil {
		log.Fatal(err)
	}
	// Burn the enrollment reads so the device RNG state matches a
	// deployed device (enrollment happened at the factory).
	if _, err := puf.Enroll(dev, 31); err != nil {
		log.Fatal(err)
	}
	device := &rbc.PUFClient{ID: core.ClientID(*id), Device: dev, NoiseBits: *noise}

	lat := rbc.Latency{}
	if *paperComm {
		lat = rbc.PaperLatency
	}
	client, err := rbc.Dial(rbc.ClientConfig{
		Addrs:   strings.Split(*server, ","),
		Latency: lat,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	req := rbc.ClientAuthRequest{Device: device, Class: qos}
	ctx := context.Background()
	if *deadline > 0 {
		req.Deadline = time.Now().Add(*deadline)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, req.Deadline)
		defer cancel()
	}
	start := time.Now()
	res, err := client.Authenticate(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("authenticated: %v (timed out: %v)\n", res.Authenticated, res.TimedOut)
	fmt.Printf("server search time: %.3fs; end-to-end: %.3fs\n",
		res.SearchSeconds, time.Since(start).Seconds())
	if res.Authenticated {
		fmt.Printf("session public key (%d bytes): %x...\n", len(res.PublicKey), res.PublicKey[:16])
	}
}
