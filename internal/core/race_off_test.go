//go:build !race

package core

// raceEnabled is device.RaceEnabled for this package's tests; see
// race_on_test.go.
const raceEnabled = false
