package clocksched

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// cellAllocBytes returns the bytes one run of cfg allocates through
// RunContext, averaged over runs after a warm-up run.
func cellAllocBytes(t *testing.T, cfg Config, runs int) uint64 {
	t.Helper()
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
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestTable2CellAllocBytes guards the streaming measurement path end to end,
// as internal/kernel's TestQuantumStepAllocs guards the quantum step: one
// 60 s MPEG cell of Table 2 through RunContext must allocate at most
// 5 KiB. The cell's power timeline, per-quantum utilization and deadline
// misses are folded as the run goes; retaining any of them again costs
// hundreds of KiB per cell (0.49 MB when all three were kept) and fails
// here. Keeping each late deadline's lateness took it to about 6.5 KiB.
func TestTable2CellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const limit = 5 << 10
	cfg := Config{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: 60 * time.Second}
	if perCell := cellAllocBytes(t, cfg, 4); perCell > limit {
		t.Errorf("a 60 s MPEG cell allocates %d B, want at most %d", perCell, limit)
	}
}

// TestTable2SlowCellAllocBytes guards the online miss count: of Table 2's
// cells, a 60 s MPEG cell at a constant 132.7 MHz has the most late
// deadlines, and it must allocate at most 6 KiB. Keeping the lateness of
// every late deadline, so that misses could be counted at any slack after
// the run, cost about 8.2 KiB.
func TestTable2SlowCellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const limit = 6 << 10
	cfg := Config{Workload: MPEG, Policy: mustPolicy(t, "constant", map[string]float64{"mhz": 132.7}),
		Seed: 1, Duration: 60 * time.Second}
	if perCell := cellAllocBytes(t, cfg, 4); perCell > limit {
		t.Errorf("a 60 s MPEG cell at 132.7 MHz allocates %d B, want at most %d", perCell, limit)
	}
}

// TestSweepCellAllocBytes guards a sweep's cost per cell beyond the run
// itself: a 20-seed Table 2 Sweep on one worker must allocate at most
// 7.5 KiB per cell. Rendering each cell's policy for its cache key, copying
// each cell for its job's closure and keeping every late deadline's
// lateness took it to about 9.4 KiB.
func TestSweepCellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const runs, limit = 2, 7680
	cfg, err := Table2Config(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	sweep := func() {
		if _, err := Sweep(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // warm up lazily built tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	if perCell := (after.TotalAlloc - before.TotalAlloc) / runs / uint64(cfg.GridSize()); perCell > limit {
		t.Errorf("a 20-seed Table 2 sweep allocates %d B per cell, want at most %d", perCell, limit)
	}
}

// table2Result is the paper's Table 2 grid as the policy registry names it
// — three constant-speed baselines and PAST peg-peg with and without
// voltage scaling, on MPEG — over n seeds: 5n cells, in five runs of equal
// policy refs.
func table2Result(tb testing.TB, n int) *SweepResult {
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
	seeds := make([]uint64, n)
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
// must encode in at most 1.5 KiB of allocation per cell, for about 1.2 KiB
// of output per cell, the output being the one envelope-sized allocation.
// Handing the whole envelope to a fresh gob.Encoder, whose buffer grows in
// small steps, allocated about 10 KiB per cell, and copying each cell's
// body out of its encoder before sizing the output 2.8 KiB.
func TestEncodeSweepResultAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled codecs at random")
	}
	const runs, limit = 4, 1536
	res := table2Result(t, 20)
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

// TestDecodeSweepResultAllocBytes guards the reverse, which a fabric
// coordinator pays for every shard it verifies and a sweepd client for
// every result: a 100-cell Table 2 envelope must decode in at most 1.5 KiB
// of allocation per cell. Reading it in place allocates little beyond the
// cells, their Results and one policy ref per run, about 1.1 KiB per cell;
// decoding it on gob, which copies the envelope, every cell's Result bytes
// and every cell's ref, allocated about 4 KiB.
func TestDecodeSweepResultAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled codecs at random")
	}
	const runs, limit = 4, 1536
	enc, err := EncodeSweepResult(table2Result(t, 20)) // derives the codecs
	if err != nil {
		t.Fatal(err)
	}
	decode := func() int {
		r, err := DecodeSweepResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		return len(r.Cells)
	}
	cells := decode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	if perCell := (after.TotalAlloc - before.TotalAlloc) / runs / uint64(cells); perCell > limit {
		t.Errorf("DecodeSweepResult allocates %d B per cell, want at most %d", perCell, limit)
	}
}

// TestEncodeSweepResultAllocsPerCell guards that an envelope's allocation
// count does not grow with its cells: a cell's envelope, Result encoding
// and residency are scratch shared by all cells, and each run of equal
// policy refs is encoded once. The 100- and 20-cell Table 2 results both
// hold five runs, and the larger may make at most one allocation per run
// more than the smaller.
func TestEncodeSweepResultAllocsPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled codecs at random")
	}
	const refRuns = 5
	allocs := func(res *SweepResult) float64 {
		if _, err := EncodeSweepResult(res); err != nil { // derive the codecs
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := EncodeSweepResult(res); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(table2Result(t, 4)), allocs(table2Result(t, 20))
	if large > small+refRuns {
		t.Errorf("a 100-cell envelope makes %v allocations, a 20-cell one %v: want at most %d more", large, small, refRuns)
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
