package expt

import (
	"context"
	"math"
	"testing"

	"clocksched/internal/analysis"
	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

// TestKernelMatchesSignalAnalysis cross-validates the two halves of the
// reproduction: the full kernel simulation driving a real AVG_3 governor
// over the rectangular workload must produce the same weighted-utilization
// trajectory as the closed-form filter of Section 5.3 (package analysis),
// once the clock is held fixed so the workload's quantum pattern is
// undisturbed.
func TestKernelMatchesSignalAnalysis(t *testing.T) {
	// A governor whose bounds never trigger keeps the clock constant
	// while its predictor observes the real kernel's utilization.
	pred := policy.MustAvgN(3)
	gov := policy.MustGovernor(pred, policy.One{}, policy.One{},
		policy.Bounds{Lo: 0, Hi: policy.FullUtil}, false)

	var observed []float64
	recorder := recordingPolicy{inner: gov, pred: pred, out: &observed}

	out, err := RunContext(context.Background(), RunSpec{
		Workload:    "rect",
		Duration:    20 * sim.Second,
		Policy:      recorder,
		InitialStep: cpu.MaxStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = out

	// Closed form: the same AVG_3 recursion over the ideal wave. The
	// kernel's wave carries the 6 µs scheduler overhead (+0.0006) in
	// every quantum, so compare within a small tolerance.
	wave, err := analysis.RectWave(9, 1, len(observed))
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := analysis.ExpDecayFilter(wave, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range observed {
		d := math.Abs(observed[i] - ideal[i])
		if d > worst {
			worst = d
		}
	}
	if worst > 0.01 {
		t.Errorf("kernel-measured AVG_3 trajectory deviates from closed form by %.4f", worst)
	}

	// And both oscillate with the same steady-state swing.
	oK, err := analysis.MeasureOscillation(observed, 1000)
	if err != nil {
		t.Fatal(err)
	}
	oI, err := analysis.MeasureOscillation(ideal, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(oK.PeakToPeak-oI.PeakToPeak) > 0.01 {
		t.Errorf("oscillation swing: kernel %.4f vs closed form %.4f",
			oK.PeakToPeak, oI.PeakToPeak)
	}
}

// recordingPolicy wraps a governor and captures the weighted utilization
// its predictor computed each quantum.
type recordingPolicy struct {
	inner *policy.Governor
	pred  policy.Predictor
	out   *[]float64
}

func (r recordingPolicy) OnQuantum(now sim.Time, util int, s cpu.Step, v cpu.Voltage) (cpu.Step, cpu.Voltage) {
	ns, nv := r.inner.OnQuantum(now, util, s, v)
	*r.out = append(*r.out, float64(r.pred.Weighted())/float64(policy.FullUtil))
	return ns, nv
}

// TestPureAverageNoBetter verifies the closing claim of Section 5.3: an
// interval policy using a pure (fixed-window) average "would perform no
// better than the weighted averaging policy" — unless the window happens to
// be an exact multiple of the workload's period, it oscillates too.
func TestPureAverageNoBetter(t *testing.T) {
	wave, err := analysis.RectWave(9, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Windows that do not divide the 10-quantum period keep oscillating:
	// the swing never settles inside a usable hysteresis dead band (a
	// longer window attenuates more, exactly as a larger N does, but pays
	// the same response lag — "simple averaging suffers from the same
	// problems ... if you do not average the appropriate period").
	for _, window := range []int{3, 4, 7, 12} {
		win := policy.MustSimpleWindow(window)
		series := make([]float64, 0, len(wave))
		for _, u := range wave {
			w := win.Observe(int(u * policy.FullUtil))
			series = append(series, float64(w)/policy.FullUtil)
		}
		o, _ := analysis.MeasureOscillation(series, 500)
		if o.PeakToPeak < 0.05 {
			t.Errorf("window %d settled to a %.4f swing — pure averaging should "+
				"oscillate off-period", window, o.PeakToPeak)
		}
	}

	// The lone exception: a window equal to the period is flat — but that
	// requires knowing the period, which is the information no interval
	// policy has.
	win := policy.MustSimpleWindow(10)
	series := make([]float64, 0, len(wave))
	for _, u := range wave {
		w := win.Observe(int(u * policy.FullUtil))
		series = append(series, float64(w)/policy.FullUtil)
	}
	o, _ := analysis.MeasureOscillation(series, 500)
	if o.PeakToPeak > 0.001 {
		t.Errorf("period-matched window still oscillates %.4f", o.PeakToPeak)
	}
}

// TestSluggishPolicyDesynchronizesAV reproduces the Section 5.2
// observation: "averaging over such a long period of time caused us to miss
// our 'deadline'. In other words, the MPEG audio and video became
// unsynchronized" — a heavily-smoothed, slow-stepping policy lets the video
// stream run far behind the (cheap, on-schedule) audio stream, while the
// best policy keeps them together.
func TestSluggishPolicyDesynchronizesAV(t *testing.T) {
	run := func(p kernel.SpeedPolicy) sim.Duration {
		out, err := RunContext(context.Background(), RunSpec{
			Workload: "mpeg", Seed: 1, Duration: 20 * sim.Second,
			Policy: p, InitialStep: cpu.MaxStep,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.Workload.Metrics().Desync("frame", "audio")
	}
	sluggish := run(policy.MustGovernor(policy.MustAvgN(9), policy.One{}, policy.One{},
		policy.BestBounds, false))
	best := run(policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{},
		policy.BestBounds, false))
	if sluggish < 60*sim.Millisecond {
		t.Errorf("sluggish policy desync = %v; the paper reports audible desynchronization", sluggish)
	}
	if best > 33*sim.Millisecond {
		t.Errorf("best policy desync = %v; it should stay within a frame", best)
	}
	if sluggish <= best {
		t.Errorf("sluggish desync %v not above best %v", sluggish, best)
	}
}

// TestSynthesizedDeadlinesStillLose addresses the paper's closing
// challenge: "A further challenge we face will be to find a way to
// automatically synthesize those deadlines for complex applications."
// Composing the best demand-synthesis machinery this library has — the
// CYCLE period detector feeding a proportional (ondemand-style) governor —
// still cannot match the application-informed deadline scheduler: every
// utilization-inferring variant either misses deadlines or burns
// meaningfully more energy. Inference is not a substitute for the
// application saying what it needs.
func TestSynthesizedDeadlinesStillLose(t *testing.T) {
	type result struct {
		name   string
		energy float64
		misses int
	}
	run := func(name string, p kernel.SpeedPolicy) result {
		out, err := RunContext(context.Background(), RunSpec{Workload: "mpeg", Seed: 1, Duration: 30 * sim.Second,
			Policy: p, InitialStep: cpu.MaxStep})
		if err != nil {
			t.Fatal(err)
		}
		return result{name, out.DAQ.EnergyJ, out.Workload.Metrics().MissCount()}
	}
	mkProp := func(pred policy.Predictor, target int) kernel.SpeedPolicy {
		p, err := policy.NewProportional(pred, target, false)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	informed := run("deadline", policy.NewDeadlineScheduler())
	if informed.misses != 0 {
		t.Fatalf("deadline scheduler missed %d", informed.misses)
	}
	inferred := []result{
		run("prop-past-70", mkProp(policy.NewPAST(), 7000)),
		run("prop-past-85", mkProp(policy.NewPAST(), 8500)),
		run("prop-cycle-70", mkProp(policy.NewCycle(), 7000)),
		run("prop-cycle-85", mkProp(policy.NewCycle(), 8500)),
		run("prop-pattern-70", mkProp(policy.NewPattern(), 7000)),
	}
	for _, r := range inferred {
		if r.misses == 0 && r.energy < informed.energy*1.03 {
			t.Errorf("%s inferred its way to %.2f J with no misses (informed: %.2f J) — "+
				"that would overturn the paper's conclusion; check the harness",
				r.name, r.energy, informed.energy)
		}
		t.Logf("%-16s %6.2f J, %d misses (informed deadline scheduler: %.2f J, 0 misses)",
			r.name, r.energy, r.misses, informed.energy)
	}
}
