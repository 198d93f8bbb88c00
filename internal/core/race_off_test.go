//go:build !race

package core

// raceEnabled is cpu.RaceEnabled for this package's tests; see
// race_on_test.go.
const raceEnabled = false
