//go:build race

package main

// Under the race detector sync.Pool drops a random share of the items
// put into it, so heap object counts no longer repeat exactly.
func init() { raceEnabled = true }
