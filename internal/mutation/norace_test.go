//go:build !race

package mutation

const raceEnabled = false
