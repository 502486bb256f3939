//go:build race

package service

// The race detector makes sync.Pool drop items at random, so pooled
// allocation counts hold only without it.
func init() { raceEnabled = true }
