//go:build !race

package sliding

// raceEnabled mirrors the race detector state for tests.
const raceEnabled = false
