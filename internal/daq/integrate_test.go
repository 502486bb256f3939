package daq

import (
	"math"
	"math/rand"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/fault"
	"clocksched/internal/power"
	"clocksched/internal/sim"
)

// randomRecorder builds a piecewise-constant power timeline with the given
// number of random-length, random-level segments, ending at end.
func randomRecorder(rng *rand.Rand, segments int, end sim.Time) *power.Recorder {
	r := power.NewRecorder(power.DefaultModel(),
		power.State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: power.ModeActive})
	r.SetWatts(0, rng.Float64()*8)
	for i := 1; i < segments; i++ {
		at := sim.Time(1 + rng.Int63n(int64(end)-1))
		r.SetWatts(at, rng.Float64()*8)
	}
	r.Finish(end)
	return r
}

// relDiff is |a-b| scaled by the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// TestIntegrateMatchesSampleRandomized is the property test behind the
// clocksched-sim/4 bump: on randomized timelines and randomized,
// deliberately unaligned windows, the incremental segment-walk integral
// must equal the old materialize-every-reading path exactly in sample
// count and peak, and within ULP-scale relative tolerance in energy and
// average power (the two paths sum the same addends in different orders).
func TestIntegrateMatchesSampleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const tol = 1e-9
	for trial := 0; trial < 200; trial++ {
		end := sim.Time(10_000 + rng.Int63n(int64(2*sim.Second)))
		rec := randomRecorder(rng, 1+rng.Intn(40), end)

		start := sim.Time(rng.Int63n(int64(end)))
		stop := start + 1 + sim.Time(rng.Int63n(int64(end-start)))
		cfg := DefaultConfig()
		// Random, often non-divisor intervals exercise the partial
		// trailing reading and the overhang refund.
		cfg.SampleInterval = sim.Duration(7 + rng.Int63n(997))

		cap, err := Sample(rec, start, stop, cfg)
		if err != nil {
			t.Fatalf("trial %d: Sample: %v", trial, err)
		}
		want := cap.summary()
		got, err := Integrate(rec, start, stop, cfg)
		if err != nil {
			t.Fatalf("trial %d: Integrate: %v", trial, err)
		}

		if got.Samples != want.Samples {
			t.Fatalf("trial %d [%d,%d) @%d: samples %d, want %d",
				trial, start, stop, cfg.SampleInterval, got.Samples, want.Samples)
		}
		if got.PeakW != want.PeakW {
			t.Fatalf("trial %d: peak %v, want %v", trial, got.PeakW, want.PeakW)
		}
		if d := relDiff(got.EnergyJ, want.EnergyJ); d > tol {
			t.Fatalf("trial %d [%d,%d) @%d: energy %v vs %v (rel %.3g)",
				trial, start, stop, cfg.SampleInterval, got.EnergyJ, want.EnergyJ, d)
		}
		if d := relDiff(got.AvgPowerW, want.AvgPowerW); d > tol {
			t.Fatalf("trial %d: avg %v vs %v (rel %.3g)",
				trial, got.AvgPowerW, want.AvgPowerW, d)
		}
		if got.Start != want.Start || got.Window != want.Window {
			t.Fatalf("trial %d: window [%v,%v), want [%v,%v)",
				trial, got.Start, got.Window, want.Start, want.Window)
		}
	}
}

// TestIntegrateMatchesSampleWithFaults pins the Fold's per-reading walk:
// with sample drops and glitches active, Integrate must make RNG draws in
// exactly the order Sample does, so two injectors built from the same seed
// produce bit-identical summaries.
func TestIntegrateMatchesSampleWithFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	plan := &fault.Plan{SampleDropProb: 0.1, SampleGlitchProb: 0.05}
	for trial := 0; trial < 50; trial++ {
		end := sim.Time(10_000 + rng.Int63n(int64(sim.Second)))
		rec := randomRecorder(rng, 1+rng.Intn(20), end)
		seed := rng.Uint64()

		injA, err := fault.NewInjector(plan, seed)
		if err != nil {
			t.Fatal(err)
		}
		injB, err := fault.NewInjector(plan, seed)
		if err != nil {
			t.Fatal(err)
		}

		cfgA := DefaultConfig()
		cfgA.Faults = injA
		cap, err := Sample(rec, 0, end, cfgA)
		if err != nil {
			t.Fatalf("trial %d: Sample: %v", trial, err)
		}
		want := cap.summary()

		cfgB := DefaultConfig()
		cfgB.Faults = injB
		got, err := Integrate(rec, 0, end, cfgB)
		if err != nil {
			t.Fatalf("trial %d: Integrate: %v", trial, err)
		}

		// Configs differ only by injector pointer; null them for the
		// comparable-struct equality check.
		got.Config.Faults, want.Config.Faults = nil, nil
		if got != want {
			t.Fatalf("trial %d seed %d: faulty summaries diverge:\n got %+v\nwant %+v",
				trial, seed, got, want)
		}
	}
}

// TestIntegrateAllocs pins the point of Integrate: measuring a window must
// not allocate, however many readings it covers. (Sample materializes one
// float per reading — 300k for a 60-second run — which was the dominant
// allocation of a sweep cell.)
func TestIntegrateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rec := randomRecorder(rng, 64, 60*sim.Second)
	cfg := DefaultConfig()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Integrate(rec, 0, 60*sim.Second, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Integrate allocates %.1f objects per 60s window, want 0", allocs)
	}
}
