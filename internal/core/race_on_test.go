//go:build race

package core

// raceEnabled is device.RaceEnabled for this package's tests, which
// cannot import device: device is built on core.
const raceEnabled = true
