package clocksched

import (
	"context"
	"runtime"
	"slices"
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
// 1250 B, for about 1000 B measured. The cell's power timeline,
// per-quantum utilization and deadline misses are folded as the run goes;
// retaining any of them again costs hundreds of KiB per cell (0.49 MB when
// all three were kept) and fails here. Keeping each late deadline's
// lateness took it to about 6.5 KiB, and building a new engine, kernel,
// power recorder, DAQ fold and outcome for every cell instead of renewing
// a released one about 4 KiB (the limit was then 5 KiB). The average runs
// over 32 cells, so a cell that misses the pool (a goroutine moved to
// another P) adds little.
func TestTable2CellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const limit = 1250
	cfg := Config{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: 60 * time.Second}
	if perCell := cellAllocBytes(t, cfg, 32); perCell > limit {
		t.Errorf("a 60 s MPEG cell allocates %d B, want at most %d", perCell, limit)
	}
}

// TestTable2SlowCellAllocBytes guards the online miss count: of Table 2's
// cells, a 60 s MPEG cell at a constant 132.7 MHz has the most late
// deadlines, and it must allocate at most 1100 B, for about 870 B
// measured. Keeping the lateness of every late deadline, so that misses
// could be counted at any slack after the run, cost about 8.2 KiB, and a
// new simulator per cell about 3.8 KiB (the limit was then 6 KiB).
func TestTable2SlowCellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const limit = 1100
	cfg := Config{Workload: MPEG, Policy: mustPolicy(t, "constant", map[string]float64{"mhz": 132.7}),
		Seed: 1, Duration: 60 * time.Second}
	if perCell := cellAllocBytes(t, cfg, 32); perCell > limit {
		t.Errorf("a 60 s MPEG cell at 132.7 MHz allocates %d B, want at most %d", perCell, limit)
	}
}

// TestDeadlineCellAllocBytes guards the deadline-driven cells, whose
// policy keeps a job queue fed by the application: a 2 s cell at seed 7
// through RunContext must allocate at most about 1.25 times what it was
// measured at. Under deadline the MPEG and Feedback cells measure 1048 and
// 1240 B, under oa 1056 and 1248 B. The deadline scheduler kept a queue of
// its own, with a smaller job, before it became the zoo's OA rule on
// application deadlines: 968 and 1160 B.
func TestDeadlineCellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	for _, c := range []struct {
		policy   string
		workload Workload
		limit    uint64
	}{
		{"deadline", MPEG, 1310},
		{"deadline", Feedback, 1550},
		{"oa", MPEG, 1320},
		{"oa", Feedback, 1560},
	} {
		cfg := Config{Workload: c.workload, Policy: mustPolicy(t, c.policy, nil), Seed: 7, Duration: 2 * time.Second}
		if perCell := cellAllocBytes(t, cfg, 32); perCell > c.limit {
			t.Errorf("a 2 s %s cell under %s allocates %d B, want at most %d", c.workload, c.policy, perCell, c.limit)
		}
	}
}

// TestFaultedCellAllocBytes guards the DAQ fold's sample-fault walk: a
// streamed MPEG cell at seed 7 whose plan drops and glitches readings
// must allocate at most about 1.25 times what it was measured at, 1392 B
// for both a 2 s and a 60 s cell. The fold keeps one entry per power
// segment in a buffer that its pooled shell carries from cell to cell.
// While such a cell retained its whole power timeline for a post-hoc walk
// and was never pooled, it allocated 8448 B at 2 s and 181760 B at 60 s.
// The figure is the median run, not the mean: a run that misses the pool
// regrows the buffer, hundreds of KiB for a 60 s cell, which one miss in
// the mean of 32 runs would turn into several KiB per cell.
func TestFaultedCellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const limit = 1740
	faults := &FaultPlan{SampleDropProb: 0.01, SampleGlitchProb: 0.01}
	for _, d := range []time.Duration{2 * time.Second, 60 * time.Second} {
		cfg := Config{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 7, Duration: d, Faults: faults}
		run := func() {
			if _, err := RunContext(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm up lazily built tables and the pooled fold's buffer
		perRun := make([]uint64, 33)
		var before, after runtime.MemStats
		for i := range perRun {
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			perRun[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(perRun)
		if perCell := perRun[len(perRun)/2]; perCell > limit {
			t.Errorf("a %v MPEG cell with sample faults allocates %d B, want at most %d", d, perCell, limit)
		}
	}
}

// TestSweepCellAllocBytes guards a sweep's cost per cell beyond the run
// itself: a 20-seed Table 2 Sweep on one worker must allocate at most
// 1520 B per cell, for about 1210 B measured. Copying the grid into a cell
// list, building a job with a closure per cell, collecting the pool's
// outcomes in a slice of its own and carrying each attempt in a context
// value took it to about 1560 B (the limit was then 1960 B). Rendering each
// cell's policy for its cache key, copying each cell for its job's closure
// and keeping every late deadline's lateness took it to about 9.4 KiB, and
// a new simulator per cell to about 4.5 KiB (the limit was then 7.5 KiB).
func TestSweepCellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const runs, limit = 2, 1520
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
		t.Skip("race-detector builds allocate more per encode (about 1.3 KiB per cell here against 1.26)")
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
// every result: a 100-cell Table 2 envelope must decode in at most 1 KiB
// of allocation per cell. Reading it and every cell's Result in place
// allocates little beyond the cells, their Results and one policy ref per
// run, about 910 B per cell; decoding each Result on a pooled gob decoder
// took about 1.1 KiB, and decoding the envelope on gob, which copies the
// envelope, every cell's Result bytes and every cell's ref, about 4 KiB.
func TestDecodeSweepResultAllocBytes(t *testing.T) {
	const runs, limit = 4, 1024
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
// 5 KiB, for about 4 KiB measured. The session fires a handful of the
// 190 s trace's events, so replay must schedule the trace lazily; building
// a closure and an engine node for every event up front, re-growing the
// zoo's job queue after each retire and hashing the cache key through fmt
// cost about 37 KiB, a new simulator per cell about 10 KiB (the limit was
// then 16 KiB), and generating the trace into a new recorder instead of
// the simulator's own about 7.1 KiB (the limit was then 9 KiB).
func TestEventDrivenCellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const runs, limit = 32, 5 << 10
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

// TestTraceCellAllocBytes guards a sweep's per-cell cost on the
// interactive workloads, whose cells replay an input trace: a cached
// 2 s sweep over web, chess, editor and feedback cells on one worker,
// alternating two policies cell by cell, must allocate at most 4730 B per
// cell, for about 3790 B measured, most of it the cached Result's
// encoding. The grid copy, the per-cell jobs and closures, the outcome
// slice and the per-attempt context value cost about 4150 B (the limit was
// then 5300 B). Generating each cell's trace into a new recorder,
// rendering the policy again whenever it differed from the last cell's,
// and hashing each key on a new hasher cost about 6600 B.
func TestTraceCellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const runs, limit = 2, 4730
	pegs := mustPolicy(t, "past-peg-peg", nil)
	oa := mustPolicy(t, "oa", nil)
	var cells []Config
	for seed := uint64(1); seed <= 4; seed++ {
		for _, w := range []Workload{Web, Chess, TalkingEditor, Feedback} {
			for _, p := range []Policy{pegs, oa} {
				cells = append(cells, Config{Workload: w, Policy: p, Seed: seed, Duration: 2 * time.Second})
			}
		}
	}
	sweep := func() {
		cache, err := NewSweepCache(len(cells), "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Sweep(context.Background(), SweepConfig{Cells: cells, Workers: 1, Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // warm up lazily built tables and the simulator pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	if perCell := (after.TotalAlloc - before.TotalAlloc) / runs / uint64(len(cells)); perCell > limit {
		t.Errorf("a cached sweep of trace-driven cells allocates %d B per cell, want at most %d", perCell, limit)
	}
}
