//go:build !race

package typegraph

const raceEnabled = false
