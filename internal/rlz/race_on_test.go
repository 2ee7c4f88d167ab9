//go:build race

package rlz

// raceEnabled reports whether the race detector is on: sync.Pool then
// drops a quarter of its Puts on purpose, so allocation pins that rest on
// pooling cannot hold.
const raceEnabled = true
