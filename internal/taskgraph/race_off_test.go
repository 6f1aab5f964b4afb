//go:build !race

package taskgraph

const raceEnabled = false
