//go:build !race

package kernel

// raceEnabled mirrors the race detector state for tests.
const raceEnabled = false
