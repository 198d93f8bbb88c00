//go:build !race

package cpu

// RaceEnabled reports whether the binary was built with the race
// detector; see race_on.go for why measured cost ratios cannot be
// trusted when it is true.
const RaceEnabled = false
