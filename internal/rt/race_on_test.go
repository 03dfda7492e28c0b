//go:build race

package rt

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
