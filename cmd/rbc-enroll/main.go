// Command rbc-enroll is the secure-facility side of the protocol: it
// manufactures (simulated) PUF devices, captures their enrollment images
// over repeated reads, and writes them either into an enrolment file that
// rbc-server can load (-store) or directly into a durable data directory
// that rbc-server serves from (-data-dir). An enrolment file is a
// snapshot of the data directory's format holding only image records,
// each sealed with AES-256-GCM under the master key; enrolment files
// written in the older gob format are still read.
//
// -remove deprovisions clients instead of enrolling them: the image, any
// registered public key/certificate and any open session are deleted (and,
// under -data-dir, journaled so the removal survives a restart).
//
// Usage:
//
//	rbc-enroll -store ca-images.db -key <64-hex-chars> -clients alice,bob -reads 31
//	rbc-enroll -data-dir /var/lib/rbc -key <64-hex-chars> -clients alice,bob
//	rbc-enroll -data-dir /var/lib/rbc -key <64-hex-chars> -remove alice
//	rbc-enroll -store ca-images.db -key <64-hex-chars> -list
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"strings"

	"rbcsalted/internal/core"
	"rbcsalted/internal/durable"
	"rbcsalted/internal/puf"
)

func main() {
	storePath := flag.String("store", "", "enrolment file of sealed images (default ca-images.db unless -data-dir)")
	dataDir := flag.String("data-dir", "", "enroll into a durable data directory instead of a store file")
	keyHex := flag.String("key", strings.Repeat("00", 32), "64-hex-char master key")
	clients := flag.String("clients", "", "comma-separated client ids to enroll")
	remove := flag.String("remove", "", "comma-separated client ids to deprovision (image, keys and sessions)")
	reads := flag.Int("reads", 31, "enrollment reads per cell")
	cells := flag.Int("cells", 1024, "PUF cells per device")
	seedBase := flag.Uint64("seedbase", 1000, "device seed base (client i gets seedbase+i)")
	baseError := flag.Float64("baseerror", puf.DefaultProfile.BaseError,
		"per-read cell flip probability (default: the paper's ~5 bits per 256)")
	list := flag.Bool("list", false, "report the stored client count and exit")
	flag.Parse()

	key, err := parseKey(*keyHex)
	if err != nil {
		log.Fatal(err)
	}
	if *storePath != "" && *dataDir != "" {
		log.Fatal("rbc-enroll: -store and -data-dir are mutually exclusive")
	}
	if *storePath == "" && *dataDir == "" {
		*storePath = "ca-images.db"
	}

	// Either destination is a store plus how to deprovision from it and
	// how to persist it: a data directory journals every mutation and
	// snapshots on Close, an enrolment file is rewritten whole.
	var (
		where       = *storePath
		store       *core.ImageStore
		deprovision func(core.ClientID) error
		persist     func() error
	)
	if *dataDir != "" {
		state, err := durable.Open(durable.Options{Dir: *dataDir, MasterKey: key, Sync: durable.SyncAlways})
		if err != nil {
			log.Fatal(err)
		}
		where, store, deprovision, persist = *dataDir, state.Images(), state.DeleteClient, state.Close
	} else {
		if store, err = durable.LoadImages(*storePath, key); errors.Is(err, fs.ErrNotExist) {
			store, err = core.NewImageStore(key)
		}
		if err != nil {
			log.Fatal(err)
		}
		deprovision, persist = store.Delete, func() error { return durable.SaveImages(*storePath, store) }
	}
	switch {
	case *list:
		fmt.Printf("%s: %d enrolled client(s)\n", where, store.Len())
		if *dataDir == "" {
			return // the file stays as it was
		}
	case *remove != "":
		for _, id := range splitIDs(*remove) {
			if err := deprovision(id); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("removed %q\n", id)
		}
	case *clients != "":
		enrollAll(store, splitIDs(*clients), *seedBase, *cells, *reads, *baseError)
	default:
		log.Fatal("rbc-enroll: -clients, -remove or -list required")
	}
	if err := persist(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d enrolled client(s))\n", where, store.Len())
}

func splitIDs(s string) []core.ClientID {
	var out []core.ClientID
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, core.ClientID(id))
		}
	}
	return out
}

func enrollAll(store *core.ImageStore, ids []core.ClientID, seedBase uint64, cells, reads int, baseError float64) {
	for i, id := range ids {
		devSeed := seedBase + uint64(i)
		profile := puf.DefaultProfile
		profile.BaseError = baseError
		dev, err := puf.NewDevice(devSeed, cells, profile)
		if err != nil {
			log.Fatal(err)
		}
		im, err := puf.Enroll(dev, reads)
		if err != nil {
			log.Fatal(err)
		}
		if err := store.Put(id, im); err != nil {
			log.Fatal(err)
		}
		uniq := puf.Uniformity(im)
		fmt.Printf("enrolled %q: device seed %d, %d cells, uniformity %.3f\n",
			id, devSeed, cells, uniq)
	}
}

func parseKey(s string) ([32]byte, error) {
	var key [32]byte
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != 32 {
		return key, fmt.Errorf("rbc-enroll: key must be 64 hex chars (32 bytes)")
	}
	copy(key[:], raw)
	return key, nil
}
