//go:build race

package collection

// raceEnabled reports whether the race detector is on: its
// instrumentation allocates, so allocation pins cannot hold.
const raceEnabled = true
