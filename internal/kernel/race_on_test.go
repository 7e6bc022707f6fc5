//go:build race

package kernel

// raceEnabled mirrors the race detector state for tests: under -race,
// sync.Pool deliberately drops a fraction of Puts, so allocation-count
// assertions cannot hold.
const raceEnabled = true
