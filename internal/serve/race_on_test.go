//go:build race

package serve

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
