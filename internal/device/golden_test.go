package device

import (
	"bufio"
	"context"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/u256"
)

// goldenCosts is the host cost table testdata/golden.tsv was recorded
// with (EXPERIMENTS.md's itermicro rows on a 2-vCPU x86-64 guest).
var goldenCosts = HostCosts{
	SHA1Ns: 164.2, SHA3Ns: 3103.2,
	IterNs: map[iterseq.Method]float64{
		iterseq.GrayCode:  73.0,
		iterseq.Alg515:    277.5,
		iterseq.Gosper:    220.1,
		iterseq.Mifsud154: 64.4,
	},
}

// goldenBase is the base seed of every golden task.
var goldenBase = u256.New(0x243f6a8885a308d3, 0x13198a2e03707344, 0xa4093822299f31d0, 0x082efa98ec4e6c89)

// goldenEngine builds the engine a golden row names.
func goldenEngine(t *testing.T, key string, alg core.HashAlg) *Engine {
	cfg := Config{Alg: alg, ExecBudget: 1, HostWorkers: 1}
	switch key {
	case "gpu1", "gpu3":
		cfg.Devices = int(key[3] - '0')
		return NewA100(cfg, goldenCosts)
	case "apu1", "apu3", "apu8":
		cfg.Devices = int(key[3] - '0')
		return NewGemini(cfg)
	case "epyc":
		return NewEPYC(alg, goldenCosts)
	}
	t.Fatalf("unknown golden engine %q", key)
	return nil
}

// goldenOracle is the seed at the given rank ("first", "mid", "last") of
// the d-shell around goldenBase in method's order; the base at d = 0.
func goldenOracle(t *testing.T, method iterseq.Method, d int, pos string) u256.Uint256 {
	if d == 0 {
		return goldenBase
	}
	size, _ := combin.Binomial64(256, d)
	rank := map[string]uint64{"first": 0, "mid": size / 2, "last": size - 1}[pos]
	it, err := iterseq.New(method, 256, d, rank, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mask [1]u256.Uint256
	if it.FillMasks(mask[:]) != 1 {
		t.Fatalf("no combination at rank %d of C(256,%d)", rank, d)
	}
	return goldenBase.Xor(mask[0])
}

// TestGoldenReplay replays every modelled engine's recorded predictions
// and searches — {A100 x1/x3, Gemini x1/x3/x8, EPYC} x {SHA-1, SHA-3} x
// every iterator x d = 0..5 x {exhaustive, early exit} with the match at
// the first, middle and last rank of the final shell — and holds each
// time and energy to a relative error of 1e-12 and every count, the
// winner and the engine's name exactly.
func TestGoldenReplay(t *testing.T) {
	f, err := os.Open("testdata/golden.tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	algs := map[string]core.HashAlg{}
	for _, a := range core.HashAlgs() {
		algs[a.String()] = a
	}
	methods := map[string]iterseq.Method{}
	for _, m := range iterseq.Methods() {
		methods[m.String()] = m
	}
	engines := map[string]*Engine{}
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	near := func(got, want float64) bool {
		return got == want || math.Abs(got-want) <= 1e-12*math.Abs(want)
	}
	rows := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		c := strings.Split(line, "\t")
		if c[0] == "name" {
			e := goldenEngine(t, c[1], algs[c[2]])
			if e.Name() != c[3] {
				t.Errorf("%s %s: Name() = %q, recorded %q", c[1], c[2], e.Name(), c[3])
			}
			engines[c[1]+" "+c[2]] = e
			continue
		}
		rows++
		e := engines[c[0]+" "+c[1]]
		alg, method := algs[c[1]], methods[c[2]]
		d, _ := strconv.Atoi(c[3])
		check, _ := strconv.Atoi(c[6])
		oracle := goldenOracle(t, method, d, c[5])
		task := core.Task{
			Base:          goldenBase,
			Target:        core.HashSeed(alg, oracle),
			MaxDistance:   d,
			Method:        method,
			Exhaustive:    c[4] == "true",
			CheckInterval: check,
			Oracle:        &oracle,
		}
		cost, err := e.PredictCost(task)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Search(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		shells := "-"
		for i, s := range res.Shells {
			if i == 0 {
				shells = ""
			} else {
				shells += ","
			}
			shells += strconv.FormatUint(s.SeedsCovered, 10)
		}
		found := "-"
		if res.Found && res.Seed.Equal(oracle) {
			found = "oracle"
		} else if res.Found {
			found = "other"
		}
		if !near(cost.Seconds, num(c[7])) || !near(cost.Joules, num(c[8])) ||
			!near(res.DeviceSeconds, num(c[9])) || !near(res.EnergyJoules, num(c[10])) ||
			!near(res.PeakWatts, num(c[11])) || strconv.FormatUint(res.SeedsCovered, 10) != c[12] ||
			shells != c[13] || found != c[14] {
			t.Errorf("%s\n  got: predicted %v s %v J, searched %v s %v J peak %v W, covered %d %s, found %s",
				line, cost.Seconds, cost.Joules, res.DeviceSeconds, res.EnergyJoules, res.PeakWatts,
				res.SeedsCovered, shells, found)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 2112 {
		t.Fatalf("replayed %d golden rows; the recording holds 2112", rows)
	}
}
