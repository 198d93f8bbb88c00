//go:build race

package core

// raceEnabled is cpu.RaceEnabled for this package's tests, which
// cannot import cpu: cpu is built on core.
const raceEnabled = true
