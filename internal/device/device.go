// Package device models the paper's three platforms — the A100, the
// Gemini APU and the 64-core EPYC — as three Descriptions run by one
// Engine (engine.go), on a shared layer of hardware platform
// specifications, virtual time, power models, host-measured cost
// calibration and the paper-derived absolute throughput anchors.
//
// The philosophy (DESIGN.md §5): performance *shape* - which algorithm or
// platform wins, by what factor, where crossovers fall - must come from
// executed code and structural models; only the absolute time scale of
// hardware we do not have (A100, Gemini APU, 64-core EPYC) is pinned to
// the paper's measured throughputs, exactly as one calibration run on the
// authors' testbed would.
package device

// Spec describes a modelled hardware platform.
type Spec struct {
	Name    string
	ClockHz float64
	// Lanes is the number of hardware parallel units: CUDA cores for the
	// GPU, physical cores for the CPU, bit processors for the APU.
	Lanes int
}

// Platform specifications from paper Table 3.
var (
	// PlatformACPU is the dual AMD EPYC 7542 host (64 physical cores).
	PlatformACPU = Spec{Name: "2xAMD EPYC 7542", ClockHz: 2.9e9, Lanes: 64}
	// A100 is one NVIDIA A100 accelerator.
	A100 = Spec{Name: "NVIDIA A100", ClockHz: 1.41e9, Lanes: 6912}
	// GeminiAPU is the GSI Gemini associative processing unit:
	// 4 cores x 16 banks x 2048 x 16-bit processors.
	GeminiAPU = Spec{Name: "GSI Gemini APU", ClockHz: 575e6, Lanes: 131072}
)

// APU organization constants (paper §3.3 and Figure 2).
const (
	APUCores        = 4
	APUBanksPerCore = 16
	APUBPsPerBank   = 2048
	// APUBPsPerPESHA1 and APUBPsPerPESHA3 are the bit processors ganged
	// into one software-defined processing element: SHA-3's state
	// footprint needs 5 BPs where SHA-1 needs 2, so 2.5x fewer PEs run
	// concurrently (65k vs 26k).
	APUBPsPerPESHA1 = 2
	APUBPsPerPESHA3 = 5
)

// PowerModel turns busy time into energy. ActiveWatts is the average
// package draw during the search including idle draw, matching the
// paper's measurement methodology ("in all presented energy measurements,
// we include this idle energy").
type PowerModel struct {
	IdleWatts   float64
	ActiveWatts float64
}

// Energy returns the joules drawn over busySeconds of search.
func (p PowerModel) Energy(busySeconds float64) float64 {
	return p.ActiveWatts * busySeconds
}

// VirtualClock accumulates modelled device time, decoupled from host
// wall-clock time.
type VirtualClock struct {
	seconds float64
}

// AdvanceSeconds adds model time.
func (c *VirtualClock) AdvanceSeconds(s float64) {
	if s < 0 {
		panic("device: negative time advance")
	}
	c.seconds += s
}

// Seconds returns the accumulated virtual time.
func (c *VirtualClock) Seconds() float64 { return c.seconds }
