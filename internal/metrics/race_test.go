//go:build race

package metrics

// The race detector instruments allocations, so allocation counts hold
// only without it.
func init() { raceEnabled = true }
