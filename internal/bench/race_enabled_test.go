//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in; the parallel
// Fig9 comparison skips under it (see runner_test.go).
const raceEnabled = true
