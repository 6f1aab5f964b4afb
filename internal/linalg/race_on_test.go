//go:build race

package linalg

// raceEnabled reports a -race build. The race runtime drops sync.Pool
// entries at random and instruments allocations, so allocation-count
// tests skip themselves under it.
const raceEnabled = true
