//go:build race

package mem

// raceEnabled reports whether the race detector is compiled in; allocation
// regression guards skip under it (instrumentation changes alloc counts).
const raceEnabled = true
