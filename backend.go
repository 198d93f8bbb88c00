package rbc

import (
	"fmt"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/device"
	"rbcsalted/internal/plan"
)

// BackendKind selects which search engine NewBackend constructs.
type BackendKind int

const (
	// BackendCPU is the real multicore engine (SALTED-CPU).
	BackendCPU BackendKind = iota
	// BackendGPU is the calibrated A100 model (SALTED-GPU).
	BackendGPU
	// BackendAPU is the calibrated Gemini model (SALTED-APU).
	BackendAPU
	// BackendPlanner is the cost-based multiplexer over the CPU, GPU and
	// APU engines: every search is dispatched to the engine the
	// calibrated cost curves (corrected by live feedback) predict to be
	// cheapest under the planner's policy, deadline and joules budget.
	BackendPlanner
)

// String names the kind for logs and error messages.
func (k BackendKind) String() string {
	switch k {
	case BackendCPU:
		return "cpu"
	case BackendGPU:
		return "gpu"
	case BackendAPU:
		return "apu"
	case BackendPlanner:
		return "planner"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// ParseBackendKind parses "cpu", "gpu", "apu" or "planner" —
// the values the command-line tools accept for their -backend flags.
func ParseBackendKind(s string) (BackendKind, error) {
	switch s {
	case "cpu":
		return BackendCPU, nil
	case "gpu":
		return BackendGPU, nil
	case "apu":
		return BackendAPU, nil
	case "planner":
		return BackendPlanner, nil
	default:
		return 0, fmt.Errorf("rbc: unknown backend kind %q (want cpu, gpu, apu or planner)", s)
	}
}

// BackendSpec describes the search engine NewBackend should build. The
// zero value (plus a Kind) is a sensible default for every kind:
//
//	b, err := rbc.NewBackend(rbc.BackendSpec{Kind: rbc.BackendGPU, Alg: rbc.SHA3, Devices: 3})
type BackendSpec struct {
	// Kind selects the engine.
	Kind BackendKind
	// Alg is the search hash; the zero value is SHA1.
	Alg HashAlg
	// Cores sets CPU search workers (CPU kind) or host execution
	// goroutines (GPU/APU kinds); 0 means GOMAXPROCS.
	Cores int
	// Devices is the modelled device count (GPU/APU kinds); 0 means 1.
	Devices int
	// ExecBudget caps the shell size executed for real rather than
	// planned analytically (GPU/APU kinds); 0 means the package default.
	ExecBudget uint64
	// Metrics receives the planner's dispatch counters (planner kind).
	Metrics *MetricsRegistry
	// JoulesBudget, when positive, caps the total energy the planner may
	// spend across all searches (planner kind); engines whose predicted
	// cost exceeds the remaining budget are deprioritized.
	JoulesBudget float64
	// PlanPolicy selects the planner's objective (planner kind); the
	// zero value is PlanBalanced.
	PlanPolicy PlanPolicy
}

// NewBackend is the single entry point for constructing any of the four
// search engines; each is ready immediately.
func NewBackend(spec BackendSpec) (Backend, error) {
	if spec.Cores < 0 {
		return nil, fmt.Errorf("rbc: negative cores %d", spec.Cores)
	}
	if spec.Devices < 0 {
		return nil, fmt.Errorf("rbc: negative devices %d", spec.Devices)
	}
	cfg := device.Config{Alg: spec.Alg, Devices: spec.Devices, ExecBudget: spec.ExecBudget, HostWorkers: spec.Cores}
	switch spec.Kind {
	case BackendCPU:
		return &cpu.Backend{Alg: spec.Alg, Workers: spec.Cores}, nil
	case BackendGPU:
		return device.NewA100(cfg, device.MeasureHostCosts()), nil
	case BackendAPU:
		return device.NewGemini(cfg), nil
	case BackendPlanner:
		// The models execute shells up to ExecBudget seeds for real and
		// cover the rest analytically; production traffic carries no
		// Oracle, so default the budget high enough for real execution
		// through d<=3 (u(3)-u(0) = 2,796,416 candidate seeds).
		if cfg.ExecBudget == 0 {
			cfg.ExecBudget = 4 << 20
		}
		return plan.New(plan.Config{
			Engines: []core.Backend{
				&cpu.Backend{Alg: spec.Alg, Workers: spec.Cores},
				device.NewA100(cfg, device.MeasureHostCosts()),
				device.NewGemini(cfg),
			},
			Policy:       plan.Policy(spec.PlanPolicy),
			JoulesBudget: spec.JoulesBudget,
			Metrics:      spec.Metrics,
		})
	default:
		return nil, fmt.Errorf("rbc: unknown backend kind %v", spec.Kind)
	}
}
