//go:build !race

package mem

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
