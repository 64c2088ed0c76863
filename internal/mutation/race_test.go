//go:build race

package mutation

const raceEnabled = true
