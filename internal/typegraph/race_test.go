//go:build race

package typegraph

const raceEnabled = true
