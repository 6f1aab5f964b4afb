//go:build !race

package floorplan

const raceEnabled = false
