package clocksched

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestTable2CellAllocBytes guards the streaming measurement path end to end,
// as internal/kernel's TestQuantumStepAllocs guards the quantum step: one
// 60 s MPEG cell of Table 2 through RunContext must allocate at most
// 128 KiB. The cell's power timeline, per-quantum utilization and deadline
// list are folded as the run goes; retaining any of them again costs
// hundreds of KiB per cell (0.49 MB when all three were kept) and fails
// here.
func TestTable2CellAllocBytes(t *testing.T) {
	const runs, limit = 4, 128 << 10
	cfg := Config{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: 60 * time.Second}
	run := func() {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up lazily built tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perCell := (after.TotalAlloc - before.TotalAlloc) / runs; perCell > limit {
		t.Errorf("a 60 s MPEG cell allocates %d KiB, want at most %d KiB", perCell>>10, limit>>10)
	}
}

// table2Result is the paper's Table 2 grid as the policy registry names it
// — three constant-speed baselines and PAST peg-peg with and without
// voltage scaling, on MPEG — over 20 seeds: 100 cells.
func table2Result(tb testing.TB) *SweepResult {
	tb.Helper()
	var ps []Policy
	for _, ref := range []PolicyRef{
		{Name: "constant", Params: map[string]float64{"mhz": 206.4}},
		{Name: "constant", Params: map[string]float64{"mhz": 132.7}},
		{Name: "constant", Params: map[string]float64{"mhz": 132.7, "low_voltage": 1}},
		{Name: "past-peg-peg"},
		{Name: "past-peg-peg", Params: map[string]float64{"voltage_scale": 1}},
	} {
		p, err := ref.Build()
		if err != nil {
			tb.Fatal(err)
		}
		ps = append(ps, p)
	}
	seeds := make([]uint64, 20)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	res, err := Sweep(context.Background(), SweepConfig{Workloads: []Workload{MPEG}, Policies: ps, Seeds: seeds, FailFast: true})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestEncodeSweepResultAllocBytes guards the sweep envelope's cost, which
// every sweepd result and fabric shard pays: a 100-cell Table 2 result
// must encode in at most 5 KiB of allocation per cell, for about 1.2 KiB
// of output per cell. Handing the whole envelope to a fresh gob.Encoder,
// whose buffer grows in small steps, allocated about 10 KiB per cell.
func TestEncodeSweepResultAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled codecs at random")
	}
	const runs, limit = 4, 5 << 10
	res := table2Result(t)
	encode := func() {
		if _, err := EncodeSweepResult(res); err != nil {
			t.Fatal(err)
		}
	}
	encode() // derive the codecs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		encode()
	}
	runtime.ReadMemStats(&after)
	if perCell := (after.TotalAlloc - before.TotalAlloc) / runs / uint64(len(res.Cells)); perCell > limit {
		t.Errorf("EncodeSweepResult allocates %d B per cell, want at most %d", perCell, limit)
	}
}

// TestEventDrivenCellAllocBytes guards an event-driven cell's set-up cost:
// a 2 s Web session under OA through RunContext must allocate at most
// 16 KiB. The session fires a handful of the 190 s trace's events, so
// replay must schedule the trace lazily; building a closure and an engine
// node for every event up front, re-growing the zoo's job queue after
// each retire and hashing the cache key through fmt cost about 37 KiB.
func TestEventDrivenCellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const runs, limit = 8, 16 << 10
	p, err := NewPolicy("oa", nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workload: Web, Policy: p, Seed: 7, Duration: 2 * time.Second}
	run := func() {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up lazily built tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perCell := (after.TotalAlloc - before.TotalAlloc) / runs; perCell > limit {
		t.Errorf("a 2 s Web cell under OA allocates %d B, want at most %d", perCell, limit)
	}
}
