//go:build !race

package collection

const raceEnabled = false
