//go:build !race

package fft

// raceEnabled mirrors the race detector state for tests.
const raceEnabled = false
