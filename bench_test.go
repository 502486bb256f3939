package clocksched

// One benchmark per table and figure of the paper's evaluation — each
// regenerates the corresponding result from scratch — plus ablation and
// machinery benchmarks. The sweep-shaped experiments' benchmarks are in
// internal/grids, which imports this package. Run with:
//
//	go test -bench=. -benchmem
//
// The Benchmark*/b.N loops re-run the full deterministic simulation, so
// ns/op reports how long one complete reproduction takes.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"clocksched/internal/cpu"
	"clocksched/internal/expt"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expt.Figure5()
		if len(res.GoingIdle) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := expt.Table1()
		if rows[6].Weighted != 5217 {
			b.Fatal("Table 1 mismatch")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Figure6(9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := expt.Table3()
		if rows[10].MemCycles != 20 {
			b.Fatal("Table 3 mismatch")
		}
	}
}

func BenchmarkBatteryLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.BatteryLifetime(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransitionCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.TransitionCost(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.SchedulerOverhead(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMartinOptimum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.MartinOptimum(2.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeringTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.PeringTradeoff(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIdealDVSComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.IdealDVSComparison(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblationSpeedSetters compares the three speed setters under the
// PAST predictor on MPEG — the paper's observation that most policy
// combinations behave equivalently (and poorly).
func BenchmarkAblationSpeedSetters(b *testing.B) {
	for code, setter := range []SpeedSetter{One, Double, Peg} { // setter codes 0, 1, 2
		b.Run(string(setter), func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Workload: MPEG,
					Policy:   mustPolicy(b, "pering-avg-n", map[string]float64{"n": 0, "up": float64(code), "down": float64(code)}),
					Duration: 10 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				energy = res.EnergyJoules
			}
			b.ReportMetric(energy, "joules")
		})
	}
}

// BenchmarkAblationAvgN sweeps the predictor decay, reporting the lag-driven
// energy/stability tradeoff.
func BenchmarkAblationAvgN(b *testing.B) {
	for _, n := range []int{0, 3, 9} {
		b.Run(policy.MustAvgN(n).Name(), func(b *testing.B) {
			var changes int
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Workload: MPEG,
					Policy:   mustPolicy(b, "pering-avg-n", map[string]float64{"n": float64(n)}),
					Duration: 10 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				changes = res.ClockChanges
			}
			b.ReportMetric(float64(changes), "clock-changes")
		})
	}
}

// BenchmarkAblationOfflineBaselines times the Weiser trace algorithms on a
// long synthetic trace.
func BenchmarkAblationOfflineBaselines(b *testing.B) {
	rng := sim.NewRNG(1)
	util := make([]float64, 100_000)
	for i := range util {
		util[i] = rng.Float64()
	}
	b.Run("OPT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := policy.OptSpeeds(util, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FUTURE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := policy.FutureSpeeds(util, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PAST", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := policy.PastSpeeds(util, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- machinery benchmarks ---

// BenchmarkSimulatedSecond measures raw simulation throughput: one second
// of MPEG-on-Itsy virtual time per iteration.
func BenchmarkSimulatedSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Workload: MPEG, Duration: time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGovernorDecide measures the per-quantum cost of the policy
// module itself — what the real kernel would pay every 10 ms.
func BenchmarkGovernorDecide(b *testing.B) {
	gov := policy.MustGovernor(policy.MustAvgN(9), policy.One{}, policy.One{},
		policy.PeringBounds, false)
	cur := cpu.Step(5)
	for i := 0; i < b.N; i++ {
		d := gov.Decide(i%10001, cur)
		cur = d.Step
	}
}

// BenchmarkBurstDuration measures the cycle-accounting hot path.
func BenchmarkBurstDuration(b *testing.B) {
	burst := cpu.Burst{Core: 4_000_000, Mem: 143_000, Cache: 40_000}
	var total sim.Duration
	for i := 0; i < b.N; i++ {
		total += burst.Duration(cpu.Step(i % cpu.NumSteps))
	}
	_ = total
}

// BenchmarkSweepTable2 measures the full Table 2 grid (50 cells of
// 60-second MPEG) through the public batch API, serially and across the
// worker pool. The /serial vs /parallel ratio is the sweep engine's
// speedup on this machine.
func BenchmarkSweepTable2(b *testing.B) {
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			res, err := Sweep(context.Background(), table2Sweep(b, workers))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Cells) != 50 {
				b.Fatalf("%d cells", len(res.Cells))
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}

// guardFloor is BenchmarkSerialGuard's floor in cells/s: half the 584.2
// cells/s once recorded for this grid on one worker. That is loose enough
// not to trip on host noise (identical sweeps vary 2× within a minute on a
// shared VM) and tight enough to catch a hot-path regression that halves
// throughput.
const guardFloor = 292.1

// BenchmarkSerialGuard is the serial-throughput regression guard that
// `make bench-guard` runs once: the Table 2 reference grid on one worker,
// timed after an untimed warm-up so the figure carries no first-touch
// costs (heap growth, page faults), failing below guardFloor. It reports
// the grid's allocation (B/op) and the allocation per cell (B/cell,
// allocs/cell), the figure perfbench's alloc_mb_per_cell judges, beside
// cells/s.
func BenchmarkSerialGuard(b *testing.B) {
	if raceEnabled {
		b.Skip("the race detector slows the simulator far below the floor")
	}
	cfg := table2Sweep(b, 1)
	if _, err := Sweep(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	cells := 0
	for i := 0; i < b.N; i++ {
		res, err := Sweep(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		cells += len(res.Cells)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(cells), "B/cell")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(cells), "allocs/cell")
	rate := float64(cells) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "cells/s")
	if rate < guardFloor {
		b.Fatalf("serial throughput %.1f cells/s below the floor of %.1f cells/s", rate, guardFloor)
	}
	b.Logf("serial throughput %.1f cells/s (floor %.1f cells/s)", rate, guardFloor)
}

// BenchmarkSweepCached measures a fully warm cache: every cell served by
// decode instead of simulation.
func BenchmarkSweepCached(b *testing.B) {
	cache, err := NewSweepCache(0, "")
	if err != nil {
		b.Fatal(err)
	}
	cfg := table2Sweep(b, 1)
	cfg.Cache = cache
	if _, err := Sweep(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeResult measures the result codec per cell: one 5 s MPEG
// cell's Result to its canonical bytes, as a cache put, a journal commit
// and the sweep envelope each pay.
func BenchmarkEncodeResult(b *testing.B) {
	res := codecSample(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeResult(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeResult measures the reverse, as a cache hit, a journal
// replay and a fabric shard verification each pay.
func BenchmarkDecodeResult(b *testing.B) {
	enc, err := encodeResult(codecSample(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeResult(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeSweepResult measures the canonical envelope of a 100-cell
// Table 2 result, as a sweepd job's stored result and a fabric shard each
// pay.
func BenchmarkEncodeSweepResult(b *testing.B) {
	res := table2Result(b, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSweepResult(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSweepResult measures the reverse, as a fabric
// coordinator's shard verification and a sweepd client each pay.
func BenchmarkDecodeSweepResult(b *testing.B) {
	enc, err := EncodeSweepResult(table2Result(b, 20))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSweepResult(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyRefGob measures one registry reference's gob round trip,
// which every cell of an envelope pays inside its spec.
func BenchmarkPolicyRefGob(b *testing.B) {
	ref := PolicyRef{Name: "constant", Params: map[string]float64{"mhz": 132.7, "low_voltage": 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := ref.GobEncode()
		if err != nil {
			b.Fatal(err)
		}
		var back PolicyRef
		if err := back.GobDecode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventDrivenCell measures one fleet-sized cell of an interactive
// workload: a 2 s Web session cut from the 190 s trace, under the OA and
// BKP zoo policies and the paper's PAST peg-peg.
func BenchmarkEventDrivenCell(b *testing.B) {
	for _, name := range []string{"oa", "bkp", "past-peg-peg"} {
		b.Run(name, func(b *testing.B) {
			p, err := NewPolicy(name, nil)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Workload: Web, Policy: p, Seed: 7, Duration: 2 * time.Second}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunContext(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
