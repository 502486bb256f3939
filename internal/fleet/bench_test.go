package fleet

import (
	"context"
	"runtime"
	"testing"
	"time"

	"clocksched"
)

// BenchmarkFleetSweep measures what a fleet costs per cell without a disk:
// Compile, one Sweep of the plan's cells into a fresh in-memory cache, and
// Reduce, over a 200-device population of 2 s sessions under the registry
// policies and a pinned 59 MHz constant. Every cell runs and is cached, so
// the cell's fixed costs — its key, workload and input trace, cache put —
// show beside the simulation. It reports B/cell and allocs/cell.
//
//	go test -run '^$' -bench FleetSweep -benchtime 5x ./internal/fleet/
func BenchmarkFleetSweep(b *testing.B) {
	spec := NewSpec(200, 1)
	spec.Duration = clocksched.Duration(2 * time.Second)
	spec.ArrivalSpread = clocksched.Duration(500 * time.Millisecond)
	for _, name := range []string{"avr", "bkp", "constant", "deadline", "oa", "past-peg-peg", "pering-avg-n", "proportional"} {
		p, err := clocksched.NewPolicy(name, nil)
		if err != nil {
			b.Fatal(err)
		}
		spec.Policies = append(spec.Policies, p)
	}
	slow, err := clocksched.NewPolicy("constant", map[string]float64{"mhz": 59, "low_voltage": 1})
	if err != nil {
		b.Fatal(err)
	}
	spec.Policies = append(spec.Policies, slow)

	round := func() int {
		plan, err := spec.Compile()
		if err != nil {
			b.Fatal(err)
		}
		cache, err := clocksched.NewSweepCache(len(plan.Cells), "")
		if err != nil {
			b.Fatal(err)
		}
		res, err := clocksched.Sweep(context.Background(), clocksched.SweepConfig{Cells: plan.Cells, Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Reduce(plan, res); err != nil {
			b.Fatal(err)
		}
		return len(plan.Cells)
	}
	round() // warm up lazily built tables and the simulator pool
	var before, after runtime.MemStats
	cells := 0
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		cells += round()
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(cells), "B/cell")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(cells), "allocs/cell")
}
