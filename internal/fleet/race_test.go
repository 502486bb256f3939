//go:build race

package fleet

// The race detector instruments allocations, so allocation counts hold
// only without it.
func init() { raceEnabled = true }
