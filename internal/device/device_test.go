package device

import (
	"testing"

	"rbcsalted/internal/cpu"
	"rbcsalted/internal/iterseq"
)

func TestVirtualClock(t *testing.T) {
	var c VirtualClock
	c.AdvanceSeconds(1)
	c.AdvanceSeconds(0.5)
	if got := c.Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
}

func TestVirtualClockPanics(t *testing.T) {
	var c VirtualClock
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.AdvanceSeconds(-1)
}

func TestSpecs(t *testing.T) {
	if A100.Lanes != 6912 || GeminiAPU.Lanes != 131072 || PlatformACPU.Lanes != 64 {
		t.Error("platform lane counts wrong")
	}
	if APUCores*APUBanksPerCore*APUBPsPerBank*16 != 2097152 {
		t.Error("APU organization does not give ~2M bit processors")
	}
	// PE counts from paper §3.3: 65k for SHA-1, 26k for SHA-3.
	sha1PEs := APUCores * APUBanksPerCore * (APUBPsPerBank / APUBPsPerPESHA1)
	sha3PEs := APUCores * APUBanksPerCore * (APUBPsPerBank / APUBPsPerPESHA3)
	if sha1PEs != 65536 {
		t.Errorf("SHA-1 PEs = %d, want 65536", sha1PEs)
	}
	if sha3PEs != 26176 {
		t.Errorf("SHA-3 PEs = %d, want 26176", sha3PEs)
	}
}

func TestMeasureHostCosts(t *testing.T) {
	c := cpu.MeasureHostCosts()
	if c.SHA1Ns <= 0 || c.SHA3Ns <= 0 {
		t.Fatalf("non-positive hash costs: %+v", c)
	}
	if c.SHA3Ns < c.SHA1Ns {
		t.Errorf("SHA-3 (%f ns) measured cheaper than SHA-1 (%f ns)", c.SHA3Ns, c.SHA1Ns)
	}
	for _, m := range iterseq.Methods() {
		if c.IterNs[m] <= 0 {
			t.Errorf("method %v has non-positive cost", m)
		}
	}
	// The relationships the paper's Table 4 rests on. Race builds cannot
	// check these: the detector's per-access instrumentation taxes the
	// Gray iterator's int-array walk more than Gosper's limb arithmetic
	// and inverts the unloaded-host ordering (see cpu.RaceEnabled).
	if !cpu.RaceEnabled {
		if !(c.IterNs[iterseq.GrayCode] < c.IterNs[iterseq.Gosper]) {
			t.Errorf("Gray (%f) not cheaper than Gosper (%f)",
				c.IterNs[iterseq.GrayCode], c.IterNs[iterseq.Gosper])
		}
		if !(c.IterNs[iterseq.Gosper] < c.IterNs[iterseq.Alg515]*1.10) {
			t.Errorf("Gosper (%f) not cheaper than Alg515 (%f)",
				c.IterNs[iterseq.Gosper], c.IterNs[iterseq.Alg515])
		}
	}
	// Caching: second call must return identical values.
	if c2 := cpu.MeasureHostCosts(); c2.SHA1Ns != c.SHA1Ns {
		t.Error("MeasureHostCosts not cached")
	}
}

func TestPowerAnchorsMatchTable6(t *testing.T) {
	// Energy = ActiveWatts x anchor search time must reproduce Table 6.
	cases := []struct {
		p       PowerModel
		seconds float64
		joules  float64
	}{
		{PowerGPUSHA1, 1.56, 317.20},
		{PowerGPUSHA3, 4.67, 946.55},
		{PowerAPUSHA1, 1.62, 124.43},
		{PowerAPUSHA3, 13.95, 974.06},
	}
	for i, c := range cases {
		if got := c.p.Energy(c.seconds); !close(got, c.joules, 1e-6) {
			t.Errorf("case %d: energy %f, want %f", i, got, c.joules)
		}
	}
}

func close(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*b
}
