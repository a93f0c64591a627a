//go:build !race

package mccuckoo

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
