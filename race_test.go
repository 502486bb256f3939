//go:build race

package clocksched

// Race-detector builds allocate more than plain ones (the simulation's
// instrumented allocations, the codec's encodes), so most allocation
// guards hold only without it.
func init() { raceEnabled = true }
