//go:build !race

package rlz

const raceEnabled = false
