package device

import "rbcsalted/internal/cpu"

// Paper anchors: measured throughputs and power draws from the paper's
// evaluation, used to pin the absolute scale of each modelled device.
// Search-only times are Table 5 exhaustive rows over u(5) = 8,987,138,113
// seeds; power draws are Table 6.
const (
	// ExhaustiveSeedsD5 is u(5), the seed count behind every d=5
	// exhaustive anchor.
	ExhaustiveSeedsD5 = 8987138113.0

	// AnchorGPUSHA3Seconds and AnchorGPUSHA1Seconds are the A100
	// exhaustive d=5 search times with the best iterator (Tables 4/5),
	// pinning the GPU model's absolute scale per hash. Two anchors are
	// needed because the host's SHA-3:SHA-1 cost ratio (portable Go on
	// this machine) does not transfer to CUDA on an A100.
	AnchorGPUSHA3Seconds = 4.67
	AnchorGPUSHA1Seconds = 1.56

	// AnchorGPUAlg515Seconds is Table 4's Algorithm 515 row (SHA-3,
	// exhaustive d=5): it calibrates how host-measured per-seed iterator
	// costs translate to A100 cycles. The Gosper row (6.04 s) is then a
	// *prediction* of the model, not an input.
	AnchorGPUAlg515Seconds = 7.53

	// AnchorAPUSHA1Seconds and AnchorAPUSHA3Seconds pin the APU scale per
	// hash. Two constants are needed because SHA-3's working set exceeds
	// the per-PE state memory and pays row-spill cycles that SHA-1 does
	// not; the gate-count model captures the compute ratio and these
	// anchors absorb the memory-system difference.
	AnchorAPUSHA1Seconds = 1.62
	AnchorAPUSHA3Seconds = 13.95

	// AnchorCPUSHA1Seconds and AnchorCPUSHA3Seconds pin the 64-core EPYC
	// scale per hash (the authors' AVX C code has a different SHA-1:SHA-3
	// ratio than portable Go).
	AnchorCPUSHA1Seconds = 12.09
	AnchorCPUSHA3Seconds = 60.68
)

// Power models calibrated from Table 6 (average active watts = joules /
// search seconds; idle and peak watts as reported).
var (
	PowerGPUSHA1 = PowerModel{IdleWatts: 31.53, ActiveWatts: 317.20 / 1.56}
	PowerGPUSHA3 = PowerModel{IdleWatts: 31.53, ActiveWatts: 946.55 / 4.67}
	PowerAPUSHA1 = PowerModel{IdleWatts: 22.10, ActiveWatts: 124.43 / 1.62}
	PowerAPUSHA3 = PowerModel{IdleWatts: 22.10, ActiveWatts: 974.06 / 13.95}

	// PeakGPUSHA1 etc. are the maximum draws from Table 6, reported
	// alongside energy.
	PeakGPUSHA1 = 253.43
	PeakGPUSHA3 = 258.29
	PeakAPUSHA1 = 83.81
	PeakAPUSHA3 = 83.63

	// PowerCPUEst is an engineering *estimate* for PlatformA (2x AMD EPYC
	// 7542): Table 6 reports no CPU rows, so the active draw is the one
	// the real host engine prices its energy at (cpu.ActiveWattsEst) and
	// idle a typical dual-socket server floor. It exists so the planner
	// can weigh SALTED-CPU's energy against the measured GPU/APU draws;
	// it is never used to reproduce a paper table.
	PowerCPUEst = PowerModel{IdleWatts: 90, ActiveWatts: cpu.ActiveWattsEst}

	// PeakCPUEst mirrors the Table 6 peak columns for the estimated CPU
	// model: TDP-bound, so peak ~= active.
	PeakCPUEst = cpu.ActiveWattsEst
)
