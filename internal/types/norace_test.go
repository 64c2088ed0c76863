//go:build !race

package types

const raceEnabled = false
