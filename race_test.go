//go:build race

package mccuckoo

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of its Puts on purpose, so pooled paths allocate.
const raceEnabled = true
