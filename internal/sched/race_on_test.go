//go:build race

package sched

// raceEnabled reports a -race build. The race runtime instruments
// allocations, so allocation-count tests skip themselves under it.
const raceEnabled = true
