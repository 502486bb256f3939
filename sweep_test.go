package clocksched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// table2Sweep is the full Table 2 measurement grid as a public sweep: five
// policies × ten seeds of the 60-second MPEG workload.
func table2Sweep(tb testing.TB, workers int) SweepConfig {
	tb.Helper()
	cfg, err := Table2Config(1, 10)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Workers = workers
	return cfg
}

// TestSweepDeterministicMerge is the tentpole guarantee: a sweep of the
// full Table 2 grid on 2, 4 or NumCPU workers is byte-identical to the
// serial sweep, cell by cell, under the canonical encoding.
func TestSweepDeterministicMerge(t *testing.T) {
	serial, err := Sweep(context.Background(), table2Sweep(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Cells) != 50 {
		t.Fatalf("serial grid size %d, want 50", len(serial.Cells))
	}
	counts := []int{2, 4, runtime.NumCPU()}
	slices.Sort(counts)
	for _, workers := range slices.Compact(counts) {
		parallel, err := Sweep(context.Background(), table2Sweep(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel.Cells) != 50 {
			t.Fatalf("%d-worker grid size %d, want 50", workers, len(parallel.Cells))
		}
		for i := range serial.Cells {
			a, err := encodeResult(serial.Cells[i].Result)
			if err != nil {
				t.Fatal(err)
			}
			b, err := encodeResult(parallel.Cells[i].Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("cell %d (%s seed %d) differs between 1 and %d workers",
					i, serial.Cells[i].Config.Policy.Name(), serial.Cells[i].Config.Seed, workers)
			}
		}
	}
}

// TestSweepPermutedGridMerge is a metamorphic test of the pool's merge: an
// explicit grid of mixed workloads, policies, fault plans and watchdogs,
// and a seeded permutation of it, each on 1 and 4 workers, with no cache,
// with a fresh cache, and again over that cache once it is warm. Every
// cell must land where its Config says: its Result bytes equal those of
// the cell it was permuted from in the serial, uncached, in-order sweep,
// and its Config matches that cell's spec.
func TestSweepPermutedGridMerge(t *testing.T) {
	faults := &FaultPlan{ClockChangeFailProb: 0.02, TimerJitterProb: 0.05}
	var cells []Config
	for _, w := range []Workload{MPEG, Web, Chess, RectWave} {
		for pi, p := range []Policy{
			mustPolicy(t, "constant", map[string]float64{"mhz": 132.7}),
			mustPolicy(t, "past-peg-peg", nil),
			mustPolicy(t, "oa", nil),
		} {
			for seed := uint64(1); seed <= 2; seed++ {
				c := Config{Workload: w, Policy: p, Seed: seed, Duration: time.Second}
				if pi == 1 && seed == 2 {
					c.Faults, c.Watchdog = faults, &WatchdogConfig{Window: 30}
				}
				cells = append(cells, c)
			}
		}
	}
	perm := rand.New(rand.NewPCG(3, 5)).Perm(len(cells))
	permuted := make([]Config, len(cells))
	for i, j := range perm {
		permuted[i] = cells[j]
	}
	encode := func(res *SweepResult) [][]byte {
		out := make([][]byte, len(res.Cells))
		for i, c := range res.Cells {
			b, err := encodeResult(c.Result)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	sweep := func(cells []Config, workers int, cache *SweepCache) *SweepResult {
		res, err := Sweep(context.Background(), SweepConfig{Cells: cells, Workers: workers, Cache: cache, FailFast: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := encode(sweep(cells, 1, nil))
	for _, order := range []struct {
		name  string
		cells []Config
		from  func(i int) int // the in-order cell that cell i is
	}{
		{"in order", cells, func(i int) int { return i }},
		{"permuted", permuted, func(i int) int { return perm[i] }},
	} {
		for _, workers := range []int{1, 4} {
			cache, err := NewSweepCache(0, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				name   string
				cache  *SweepCache
				cached bool
			}{{"no cache", nil, false}, {"fresh cache", cache, false}, {"warm cache", cache, true}} {
				res := sweep(order.cells, workers, run.cache)
				got := encode(res)
				for i, c := range res.Cells {
					j := order.from(i)
					if !bytes.Equal(got[i], want[j]) {
						t.Errorf("%s, %d workers, %s: cell %d (%s, %s, seed %d) differs from in-order cell %d",
							order.name, workers, run.name, i, c.Config.Workload, c.Config.Policy.Name(), c.Config.Seed, j)
					}
					if !newCellSpec(cells[j]).Matches(c.Config) {
						t.Errorf("%s, %d workers, %s: cell %d has Config %+v, want in-order cell %d's",
							order.name, workers, run.name, i, c.Config, j)
					}
					if c.Cached != run.cached {
						t.Errorf("%s, %d workers, %s: cell %d Cached = %v", order.name, workers, run.name, i, c.Cached)
					}
				}
			}
		}
	}
}

func TestSweepCellAt(t *testing.T) {
	cfg := SweepConfig{
		Workloads: []Workload{MPEG, RectWave},
		Policies:  []Policy{mustPolicy(t, "constant", nil), mustPolicy(t, "past-peg-peg", nil)},
		Seeds:     []uint64{1, 2},
		Duration:  2 * time.Second,
		Workers:   2,
		FailFast:  true,
	}
	res, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	c := res.CellAt(1, 1, 0)
	if c == nil {
		t.Fatal("CellAt(1,1,0) = nil")
	}
	if c.Config.Workload != RectWave || !reflect.DeepEqual(c.Config.Policy, mustPolicy(t, "past-peg-peg", nil)) || c.Config.Seed != 1 {
		t.Errorf("CellAt(1,1,0) resolved to %+v", c.Config)
	}
	if c != &res.Cells[(1*2+1)*2+0] {
		t.Error("CellAt does not alias the grid slice")
	}
	if res.CellAt(2, 0, 0) != nil || res.CellAt(0, 0, 2) != nil || res.CellAt(-1, 0, 0) != nil {
		t.Error("out-of-range CellAt returned a cell")
	}
	st := res.Stats()
	if st.Cells != 8 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
	if !(st.MinEnergyJoules <= st.MeanEnergyJoules && st.MeanEnergyJoules <= st.MaxEnergyJoules) {
		t.Errorf("energy stats disordered: %+v", st)
	}
	if st.MinEnergyJoules <= 0 {
		t.Errorf("min energy %v", st.MinEnergyJoules)
	}
}

func TestSweepValidatesEagerly(t *testing.T) {
	// Three broken cells: every problem must surface in one error, with
	// nothing simulated.
	_, err := Sweep(context.Background(), SweepConfig{
		Cells: []Config{
			{Workload: "nope", Duration: time.Second},
			{Duration: -time.Second},
			{Policy: Policy{Up: "warp", Down: Peg, LoPercent: 90, HiPercent: 20}, Duration: time.Second},
		},
	})
	if err == nil {
		t.Fatal("malformed grid accepted")
	}
	for _, want := range []string{"unknown workload", "negative duration", "unknown up setter", "bounds"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q:\n%v", want, err)
		}
	}
}

func TestConfigValidateJoinsAllProblems(t *testing.T) {
	err := Config{
		Workload:      "nope",
		Duration:      -time.Second,
		DeadlineSlack: -time.Millisecond,
		Policy:        Policy{AvgN: -1, Up: "warp", Down: "warp", LoPercent: 90, HiPercent: 20},
	}.Validate()
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if n := len(strings.Split(err.Error(), "\n")); n < 5 {
		t.Errorf("only %d problems reported:\n%v", n, err)
	}
}

func TestSweepCacheHitsAndStats(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewSweepCache(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{
		Workloads: []Workload{MPEG},
		Policies:  []Policy{mustPolicy(t, "past-peg-peg", nil)},
		Seeds:     []uint64{1, 2, 3},
		Duration:  2 * time.Second,
		Cache:     cache,
		FailFast:  true,
	}
	cold, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cold.Cells {
		if c.Cached {
			t.Errorf("cold cell %d served from cache", i)
		}
	}
	if st := cache.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}

	warm, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range warm.Cells {
		if !c.Cached {
			t.Errorf("warm cell %d re-simulated", i)
		}
		a, _ := encodeResult(cold.Cells[i].Result)
		b, _ := encodeResult(warm.Cells[i].Result)
		if !bytes.Equal(a, b) {
			t.Errorf("cached cell %d differs from original", i)
		}
	}
	if st := cache.Stats(); st.Hits != 3 {
		t.Fatalf("warm stats = %+v", st)
	}

	// A fresh cache over the same directory serves from disk.
	fresh, err := NewSweepCache(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = fresh
	disk, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range disk.Cells {
		if !c.Cached {
			t.Errorf("disk cell %d re-simulated", i)
		}
	}
	if st := fresh.Stats(); st.DiskHits != 3 {
		t.Fatalf("disk stats = %+v", st)
	}
}

func TestCacheKeyChangesWithVersionAndSpec(t *testing.T) {
	base := Config{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: time.Second}
	if cacheKeyAt("sim/1", base) == cacheKeyAt("sim/2", base) {
		t.Error("simulation version bump did not invalidate the key")
	}
	vary := []Config{
		{Workload: Web, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: time.Second},
		{Workload: MPEG, Policy: mustPolicy(t, "pering-avg-n", map[string]float64{"n": 9, "up": 0, "down": 1}), Seed: 1, Duration: time.Second},
		{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 2, Duration: time.Second},
		{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: 2 * time.Second},
		{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: time.Second, CaptureTrace: true},
		{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: time.Second,
			Faults: &FaultPlan{ClockChangeFailProb: 0.1}},
	}
	seen := map[string]int{cacheKey(base): -1}
	for i, cfg := range vary {
		k := cacheKey(cfg)
		if j, dup := seen[k]; dup {
			t.Errorf("configs %d and %d collide", i, j)
		}
		seen[k] = i
	}
	if cacheKey(base) != cacheKey(base) {
		t.Error("key not stable")
	}
}

// TestCacheKeyGolden pins the content address of a spread of cells: every
// workload kind, built-in and registry policies (float parameters
// included), a seed past the int64 range, fault plans, a watchdog and a
// captured trace. A cache key that moves orphans every cached result and
// journal record, so the hashed byte stream must not change without a
// sim.Version bump.
func TestCacheKeyGolden(t *testing.T) {
	build := func(name string, params map[string]float64) Policy { return mustPolicy(t, name, params) }
	// The flat-form cases are the literals specs written before the
	// registry carry.
	pastPegPeg := Policy{Up: Peg, Down: Peg, LoPercent: 93, HiPercent: 98}
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Workload: MPEG, Policy: pastPegPeg, Seed: 1, Duration: time.Second},
			"b36049dfbc4de93847b8912a46d93cd4c36c07cc982b4b9daf9ab5832bb197bc"},
		{Config{Workload: Web, Policy: build("oa", nil), Seed: 7, Duration: 2 * time.Second},
			"b16e59a61d4c5da28a84442ae4d8a4f35c56b602b989d209727cb1563dd0d713"},
		{Config{Workload: Chess, Policy: build("avr", map[string]float64{"slack_quanta": 5}), Seed: 3, Duration: 2 * time.Second},
			"4d727839671ac5db6208a195076865a4070d0dc871b51d8dc8c94bd7e4a65e2e"},
		{Config{Workload: TalkingEditor, Policy: Policy{Constant: true, MHz: 132.7, LowVoltage: true}, Seed: 2},
			"7156191d9413bd59236cbb1ff4349515626364f611b2e0aa833deca58ac5850c"},
		{Config{Workload: RectWave, Policy: Policy{AvgN: 9, Up: One, Down: Double, LoPercent: 50, HiPercent: 70}, Seed: 1<<63 + 5, Duration: 20 * time.Second},
			"55ecbe697791457961079bcd5dc1f0f70464acdc2b017363783c7abdf709365a"},
		{Config{Workload: Feedback, Policy: build("constant", map[string]float64{"mhz": 132.7, "low_voltage": 1}), Seed: 11, Duration: 3 * time.Second},
			"3f179c0539887fa3d3494ac02010393db8552c9e0620ce6e4639ab9c712d1081"},
		{Config{Workload: MPEG, Policy: pastPegPeg, Seed: 4, Duration: 5 * time.Second, DeadlineSlack: 50 * time.Millisecond,
			Faults:   &FaultPlan{ClockChangeFailProb: 0.01, SampleDropProb: 0.005, TimerJitterProb: 0.02},
			Watchdog: &WatchdogConfig{Window: 30, MaxReversals: 6}},
			"1bd2d8274a2b94365948ffbca861daa28064d2836ac81fd57a8c3b0ce829165e"},
		{Config{Workload: Web, Policy: build("bkp", nil), Seed: 9, Duration: 2 * time.Second, CaptureTrace: true},
			"701ffc08e5366313c5276ffa3f983c402dc445a192445673d69a66795875afa8"},
	}
	for i, c := range cases {
		if got := cacheKey(c.cfg); got != c.want {
			t.Errorf("case %d (%s): cacheKey = %s, want %s", i, c.cfg.Workload, got, c.want)
		}
	}
}

func TestResultWireRoundTrip(t *testing.T) {
	res, err := Run(Config{
		Workload:     MPEG,
		Policy:       mustPolicy(t, "past-peg-peg", nil),
		Seed:         3,
		Duration:     2 * time.Second,
		CaptureTrace: true,
		Faults:       &FaultPlan{ClockChangeFailProb: 0.05},
		Watchdog:     &WatchdogConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Errorf("round trip changed the result:\n%+v\n%+v", res, back)
	}
	b2, err := encodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("re-encoding is not canonical")
	}
}

func TestSweepProgress(t *testing.T) {
	// Progress callbacks run concurrently and may arrive out of order, but
	// each done count 1..total is reported exactly once.
	var mu sync.Mutex
	seen := map[int]int{}
	total := -1
	_, err := Sweep(context.Background(), SweepConfig{
		Workloads: []Workload{RectWave},
		Seeds:     []uint64{1, 2, 3, 4},
		Duration:  time.Second,
		Workers:   2,
		FailFast:  true,
		Progress: func(done, n int) {
			mu.Lock()
			defer mu.Unlock()
			seen[done]++
			total = n
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 || len(seen) != 4 {
		t.Fatalf("progress calls %v of total %d", seen, total)
	}
	for d := 1; d <= 4; d++ {
		if seen[d] != 1 {
			t.Fatalf("done count %d reported %d times: %v", d, seen[d], seen)
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, table2Sweep(t, 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestSweepCollectAllReportsPerCell(t *testing.T) {
	// Cancel mid-sweep without FailFast: completed cells keep their
	// results, unrun cells carry errors, and the joined error surfaces.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	res, err := Sweep(ctx, SweepConfig{
		Workloads: []Workload{RectWave},
		Seeds:     []uint64{1, 2, 3, 4, 5, 6},
		Duration:  time.Second,
		Workers:   1,
		Progress: func(done, total int) {
			n++
			if n == 2 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if res == nil {
		t.Fatal("collect-all returned no partial result")
	}
	ok, failed := 0, 0
	for _, c := range res.Cells {
		if c.Err != nil {
			failed++
		} else if c.Result != nil {
			ok++
		}
	}
	if ok == 0 || failed == 0 {
		t.Errorf("expected a partial sweep, got %d ok / %d failed", ok, failed)
	}
	if st := res.Stats(); st.Failed != failed {
		t.Errorf("stats.Failed = %d, want %d", st.Failed, failed)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{Duration: time.Second})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestTraceSeqEarlyStop(t *testing.T) {
	res, err := Run(Config{Duration: time.Second, CaptureTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceLen() != 100 {
		t.Fatalf("TraceLen = %d", res.TraceLen())
	}
	n := 0
	for range res.TraceSeq() {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Errorf("early break yielded %d points", n)
	}
}

func ExampleSweep() {
	var policies []Policy
	for _, name := range []string{"constant", "past-peg-peg"} {
		p, err := NewPolicy(name, nil)
		if err != nil {
			panic(err)
		}
		policies = append(policies, p)
	}
	res, err := Sweep(context.Background(), SweepConfig{
		Workloads: []Workload{MPEG},
		Policies:  policies,
		Seeds:     []uint64{1},
		Duration:  10 * time.Second,
		FailFast:  true,
	})
	if err != nil {
		panic(err)
	}
	baseline := res.CellAt(0, 0, 0).Result
	best := res.CellAt(0, 1, 0).Result
	fmt.Printf("baseline misses: %d\n", baseline.Misses)
	fmt.Printf("best policy saves energy: %v\n", best.EnergyJoules < baseline.EnergyJoules)
	// Output:
	// baseline misses: 0
	// best policy saves energy: true
}

// TestSweepPolicyKeyMemo checks the policy rendering Sweep shares across a
// run of equal policies: after a sweep into a fresh cache, every cell's
// result sits under cacheKey(cell) — the key computed without the memo —
// and nothing else is stored. The grids hold equal policies behind
// different Ref pointers (built twice, or decoded from JSON), refs whose
// Params differ in one entry, a flat form whose MHz is 0 in one cell and
// -0 in the next (equal under ==, rendered apart), and alternating
// policies.
func TestSweepPolicyKeyMemo(t *testing.T) {
	decoded := func(p Policy) Policy {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var q Policy
		if err := json.Unmarshal(b, &q); err != nil {
			t.Fatal(err)
		}
		return q
	}
	slow := mustPolicy(t, "constant", map[string]float64{"mhz": 132.7})
	pegs := mustPolicy(t, "past-peg-peg", nil)
	negZero := pastPegPegFlat
	negZero.MHz = math.Copysign(0, -1)
	grids := map[string]SweepConfig{
		"equal-refs": {Policies: []Policy{
			slow, mustPolicy(t, "constant", map[string]float64{"mhz": 132.7}), decoded(slow), decoded(slow),
		}, Seeds: []uint64{1, 2, 3}},
		"params-differ": {Policies: []Policy{
			slow,
			mustPolicy(t, "constant", map[string]float64{"mhz": 132.7, "low_voltage": 0}),
			mustPolicy(t, "constant", map[string]float64{"mhz": 132.7, "low_voltage": math.Copysign(0, -1)}),
			mustPolicy(t, "constant", map[string]float64{"mhz": 132.7, "low_voltage": 1}),
		}, Seeds: []uint64{1, 2}},
		"flat-zero": {Policies: []Policy{pastPegPegFlat, negZero, pastPegPegFlat}, Seeds: []uint64{4, 5}},
		"alternating": {Cells: []Config{
			{Policy: slow, Seed: 1}, {Policy: pegs, Seed: 1}, {Policy: decoded(slow), Seed: 2},
			{Policy: decoded(pegs), Seed: 2}, {Policy: slow, Seed: 3}, {Seed: 3}, {Seed: 3},
		}},
	}
	for name, cfg := range grids {
		t.Run(name, func(t *testing.T) {
			cache, err := NewSweepCache(0, "")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workloads = []Workload{MPEG}
			cfg.Duration = 200 * time.Millisecond
			if len(cfg.Cells) > 0 {
				for i := range cfg.Cells {
					cfg.Cells[i].Duration = cfg.Duration
				}
			}
			cfg.Cache = cache
			cfg.Workers = 2
			res, err := Sweep(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			keys := map[string]bool{}
			for i, cell := range res.Cells {
				key := cacheKey(cell.Config)
				keys[key] = true
				b, ok, err := cache.Get(key, func(b []byte) error { _, err := decodeResult(b); return err })
				if err != nil || !ok {
					t.Fatalf("cell %d (%s, seed %d): no cache entry under its key (err %v)",
						i, cell.Config.Policy.cacheString(), cell.Config.Seed, err)
				}
				want, err := encodeResult(cell.Result)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, want) {
					t.Errorf("cell %d (%s, seed %d): cached result differs from the sweep's",
						i, cell.Config.Policy.cacheString(), cell.Config.Seed)
				}
			}
			if n := cache.Stats().Entries; n != len(keys) {
				t.Errorf("cache holds %d entries, want %d distinct cell keys", n, len(keys))
			}
		})
	}
}

// TestCellKeysMatchCacheKey checks the keys Sweep computes through
// cellKeys — one hasher for every key, each policy rendered once per sweep
// — against cacheKey, which renders and hashes afresh, over cells that
// alternate three policies: one registry policy behind two Ref pointers
// with equal params, a flat constant at MHz 0 and at -0 (equal map keys
// that render apart), PAST peg-peg, and a NaN MHz, which no map lookup
// can find and which must not grow the memo. The cells need not be valid:
// keys are computed before validation runs anything.
func TestCellKeysMatchCacheKey(t *testing.T) {
	slow := mustPolicy(t, "constant", map[string]float64{"mhz": 132.7})
	slowAgain := mustPolicy(t, "constant", map[string]float64{"mhz": 132.7})
	if slow.Ref == slowAgain.Ref {
		t.Fatal("two builds share one Ref")
	}
	zero := Policy{Constant: true}
	negZero := Policy{Constant: true, MHz: math.Copysign(0, -1)}
	nan := Policy{Constant: true, MHz: math.NaN()}
	pegs := mustPolicy(t, "past-peg-peg", nil)
	order := []Policy{
		slow, zero, pegs, slowAgain, negZero, pegs, zero, slow, negZero,
		nan, pegs, nan, slowAgain, negZero, zero, negZero,
	}
	var keys cellKeys
	for i, p := range order {
		c := Config{Workload: Web, Policy: p, Seed: uint64(i % 3)}
		if got, want := keys.key(&c), cacheKey(c); got != want {
			t.Errorf("cell %d (%s): key %s, want cacheKey %s", i, p.cacheString(), got, want)
		}
	}
	// The memo holds one entry per resolved policy: the constant 132.7,
	// the constant at ±0 and PAST peg-peg, never a NaN.
	if n := len(keys.rendered); n != 3 {
		t.Errorf("the memo holds %d renderings, want 3", n)
	}
}
