package fleet

import (
	"context"
	"runtime"
	"testing"
	"time"

	"clocksched"
)

// raceEnabled is set in race-detector builds.
var raceEnabled bool

// mixSpec is the 200-device population BenchmarkFleetSweep and
// TestFleetCellAllocBytes measure: 2 s sessions under the registry
// policies and a pinned 59 MHz constant.
func mixSpec(tb testing.TB) Spec {
	tb.Helper()
	spec := NewSpec(200, 1)
	spec.Duration = clocksched.Duration(2 * time.Second)
	spec.ArrivalSpread = clocksched.Duration(500 * time.Millisecond)
	for _, name := range []string{"avr", "bkp", "constant", "deadline", "oa", "past-peg-peg", "pering-avg-n", "proportional"} {
		p, err := clocksched.NewPolicy(name, nil)
		if err != nil {
			tb.Fatal(err)
		}
		spec.Policies = append(spec.Policies, p)
	}
	slow, err := clocksched.NewPolicy("constant", map[string]float64{"mhz": 59, "low_voltage": 1})
	if err != nil {
		tb.Fatal(err)
	}
	spec.Policies = append(spec.Policies, slow)
	return spec
}

// mixRound compiles spec, sweeps its cells into a fresh in-memory cache
// and reduces the result, returning the number of cells.
func mixRound(tb testing.TB, spec Spec) int {
	tb.Helper()
	plan, err := spec.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	cache, err := clocksched.NewSweepCache(len(plan.Cells), "")
	if err != nil {
		tb.Fatal(err)
	}
	res, err := clocksched.Sweep(context.Background(), clocksched.SweepConfig{Cells: plan.Cells, Cache: cache})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := Reduce(plan, res); err != nil {
		tb.Fatal(err)
	}
	return len(plan.Cells)
}

// mixAllocPerCell runs one untimed round of spec to warm up lazily built
// tables and the simulator pool, then rounds more, and returns the bytes
// and allocations per cell of those.
func mixAllocPerCell(tb testing.TB, spec Spec, rounds int) (bytes, allocs float64) {
	tb.Helper()
	mixRound(tb, spec)
	var before, after runtime.MemStats
	cells := 0
	if b, ok := tb.(*testing.B); ok {
		b.ResetTimer()
	}
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		cells += mixRound(tb, spec)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(cells),
		float64(after.Mallocs-before.Mallocs) / float64(cells)
}

// BenchmarkFleetSweep measures what a fleet costs per cell without a disk:
// Compile, one Sweep of the plan's cells into a fresh in-memory cache, and
// Reduce, over mixSpec's population. Every cell runs and is cached, so
// the cell's fixed costs — its key, workload and input trace, cache put —
// show beside the simulation. It reports B/cell and allocs/cell.
//
//	go test -run '^$' -bench FleetSweep -benchtime 5x ./internal/fleet/
func BenchmarkFleetSweep(b *testing.B) {
	bytes, allocs := mixAllocPerCell(b, mixSpec(b), b.N)
	b.ReportMetric(bytes, "B/cell")
	b.ReportMetric(allocs, "allocs/cell")
}

// TestFleetCellAllocBytes guards a fleet's cost per cell over the whole
// registry mix, zoo rules and interactive traces included: mixSpec's
// 200-device population, compiled, swept into an in-memory cache and
// reduced, must allocate at most 3400 B per cell, for about 2700 B
// measured, most of it the cached Result's encoding. Growing each zoo
// scheduler's job queue and BKP history from empty, and building each
// cell's workload, its programs and its deadline streams anew, cost about
// 4090 B.
func TestFleetCellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const limit = 3400
	if perCell, _ := mixAllocPerCell(t, mixSpec(t), 2); perCell > limit {
		t.Errorf("a 200-device fleet allocates %.0f B per cell, want at most %d", perCell, limit)
	}
}
