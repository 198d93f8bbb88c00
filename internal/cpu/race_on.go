//go:build race

package cpu

// RaceEnabled reports whether the binary was built with the race
// detector. The detector instruments every memory access, which taxes
// pointer-chasing code far more than register arithmetic — so the
// *ratios* MeasureHostCosts exists to capture are distorted on race
// builds (the Gray iterator's int-array walk can measure costlier than
// Gosper's limb arithmetic, inverting the unloaded-host ordering).
// Tests that assert cross-operation cost relationships consult this to
// skip assertions a race build cannot meaningfully check.
const RaceEnabled = true
