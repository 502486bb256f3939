package expt

import (
	"context"
	"reflect"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/fault"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

// mpegFaultSpec is the acceptance scenario: the paper's best policy on MPEG
// with 1% of clock transitions failing silently.
func mpegFaultSpec(plan *fault.Plan) RunSpec {
	return RunSpec{
		Workload:    "mpeg",
		Seed:        1,
		Duration:    20 * sim.Second,
		Policy:      policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{}, policy.BestBounds, false),
		InitialStep: cpu.MaxStep,
		InitialV:    cpu.VHigh,
		Faults:      plan,
	}
}

func TestFaultedMPEGCompletesGracefully(t *testing.T) {
	out, err := RunContext(context.Background(), mpegFaultSpec(&fault.Plan{ClockChangeFailProb: 0.01}))
	if err != nil {
		t.Fatalf("1%% clock-fail MPEG run errored: %v", err)
	}
	if out.Faults.ClockChangeFails == 0 {
		t.Error("1% clock-fail plan injected nothing over 2000 quanta")
	}
	if got := out.Kernel.FailedSpeedChanges(); got != out.Faults.ClockChangeFails {
		t.Errorf("kernel counted %d failed changes, injector %d",
			got, out.Faults.ClockChangeFails)
	}
	if out.DAQ.EnergyJ <= 0 {
		t.Errorf("energy = %v", out.DAQ.EnergyJ)
	}
}

func TestFaultedRunIsDeterministic(t *testing.T) {
	plan := &fault.Plan{
		ClockChangeFailProb: 0.02,
		SettleStallProb:     0.05,
		SampleDropProb:      0.01,
		SampleGlitchProb:    0.01,
		TimerJitterProb:     0.05,
		TraceDropProb:       0.02,
		TraceDelayProb:      0.02,
	}
	// deadlines is what a run's collector holds: the miss count, the
	// total and per-stream counts, and each stream's worst lateness.
	type deadlines struct {
		misses, count, frame, audio int
		frameLate, audioLate        sim.Duration
	}
	run := func(stream bool) (*RunOutcome, deadlines) {
		spec := mpegFaultSpec(plan)
		spec.Stream = stream
		out, err := RunContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		col := out.Workload.Metrics()
		return out, deadlines{col.MissCount(), col.Count(), col.CountFor("frame"), col.CountFor("audio"),
			col.MaxLatenessFor("frame"), col.MaxLatenessFor("audio")}
	}
	a, aDeadlines := run(false)
	// The second run streams its measurement: a plan with sample faults
	// must keep the retained timeline and draw the same fault schedule.
	for _, stream := range []bool{false, true} {
		b, bDeadlines := run(stream)
		if a.Faults != b.Faults {
			t.Errorf("stream=%v: same seed+plan, different fault schedules:\n%+v\n%+v", stream, a.Faults, b.Faults)
		}
		if a.DAQ.EnergyJ != b.DAQ.EnergyJ || a.DAQ.AvgPowerW != b.DAQ.AvgPowerW || a.Kernel.MeanUtil() != b.Kernel.MeanUtil() {
			t.Errorf("stream=%v: same seed+plan, different measurements: %v/%v/%v vs %v/%v/%v", stream,
				a.DAQ.EnergyJ, a.DAQ.AvgPowerW, a.Kernel.MeanUtil(), b.DAQ.EnergyJ, b.DAQ.AvgPowerW, b.Kernel.MeanUtil())
		}
		if a.DAQ.EnergyJ != b.DAQ.EnergyJ || a.DAQ.PeakW != b.DAQ.PeakW || a.DAQ.Samples != b.DAQ.Samples {
			t.Errorf("stream=%v: same seed+plan, different DAQ captures", stream)
		}
		if !reflect.DeepEqual(aDeadlines, bDeadlines) {
			t.Errorf("stream=%v: same seed+plan, different deadline outcomes", stream)
		}
	}
	if aDeadlines.count == 0 || max(aDeadlines.frameLate, aDeadlines.audioLate) <= 0 {
		t.Errorf("faulted run recorded %d deadlines, max lateness %v; want a late one",
			aDeadlines.count, max(aDeadlines.frameLate, aDeadlines.audioLate))
	}
}

func TestNilPlanMatchesNoFaultLayer(t *testing.T) {
	// The fault layer must be invisible when disabled: a nil plan and a
	// zero plan produce runs bit-identical to each other (the injector is
	// nil in both cases, so zero RNG draws happen either way).
	outNil, err := RunContext(context.Background(), mpegFaultSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	outZero, err := RunContext(context.Background(), mpegFaultSpec(&fault.Plan{}))
	if err != nil {
		t.Fatal(err)
	}
	if outNil.DAQ.EnergyJ != outZero.DAQ.EnergyJ {
		t.Errorf("nil plan %v J, zero plan %v J", outNil.DAQ.EnergyJ, outZero.DAQ.EnergyJ)
	}
	if outNil.DAQ != outZero.DAQ {
		t.Error("nil and zero plans produced different captures")
	}
	if outNil.Faults.Total() != 0 || outZero.Faults.Total() != 0 {
		t.Errorf("disabled plans injected faults: %v / %v",
			outNil.Faults.Total(), outZero.Faults.Total())
	}
}

func TestEventCapGuardsRunaway(t *testing.T) {
	spec := mpegFaultSpec(nil)
	spec.EventCap = 50 // absurdly low: the run must abort, not hang
	_, err := RunContext(context.Background(), spec)
	if err == nil {
		t.Fatal("50-event cap did not abort a 20 s run")
	}
}

func TestWatchdogDetectsOscillationOnRectWave(t *testing.T) {
	// RectWave's 9-busy/1-idle pattern under Pering's 50%/70% bounds with
	// PAST + peg setters oscillates: every idle quantum drags PAST to 0%
	// (peg to minimum), the next busy quantum pushes it to 100% (peg back
	// to maximum) — two reversals per 10-quantum cycle, forever. A window
	// spanning three cycles must catch the flip-flop within ~30 quanta
	// and degrade to full speed.
	wcfg := policy.WatchdogConfig{Window: 30, MaxReversals: 5}
	spec := RunSpec{
		Workload:    "rect",
		Seed:        1,
		Duration:    20 * sim.Second,
		Policy:      policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{}, policy.PeringBounds, false),
		InitialStep: cpu.MaxStep,
		InitialV:    cpu.VHigh,
		Watchdog:    &wcfg,
	}
	out, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := out.Watchdog.Trips()
	if tr.Oscillation == 0 {
		t.Fatalf("watchdog never tripped on a pegging flip-flop: %+v", tr)
	}
	// Detection latency is bounded: the first trip needs at most
	// Window quanta of history, so over 2000 quanta with ~1 s safe holds
	// the wrapped run must spend most of its time in safe mode at 206.4
	// MHz. Residency at MaxStep confirms degradation actually engaged.
	res := out.Kernel.Residency()
	atMax := res[cpu.MaxStep]
	if atMax < 10*sim.Second {
		t.Errorf("safe-mode residency at 206.4 MHz = %v, want most of the 20 s run", atMax)
	}

	// The same policy without the watchdog thrashes: it changes clock
	// step far more often.
	spec.Watchdog = nil
	spec.Policy = policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{}, policy.PeringBounds, false)
	bare, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Kernel.SpeedChanges() <= out.Kernel.SpeedChanges() {
		t.Errorf("watchdog did not reduce thrashing: %d changes wrapped vs %d bare",
			out.Kernel.SpeedChanges(), bare.Kernel.SpeedChanges())
	}
}

func TestWatchdogSafeModeMissesNoDeadlines(t *testing.T) {
	// Acceptance: a watchdog-wrapped PAST-Peg-Peg MPEG run under clock
	// change faults completes with misses bounded by the unfaulted
	// baseline plus the number of injected faults.
	base, err := RunContext(context.Background(), mpegFaultSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	baseMisses := base.Workload.Metrics().MissCount()

	spec := mpegFaultSpec(&fault.Plan{ClockChangeFailProb: 0.01})
	spec.Watchdog = &policy.WatchdogConfig{}
	out, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatalf("watchdog-wrapped faulted run errored: %v", err)
	}
	misses := out.Workload.Metrics().MissCount()
	if limit := baseMisses + out.Faults.ClockChangeFails; misses > limit {
		t.Errorf("faulted+watchdog run missed %d deadlines, want ≤ %d (baseline %d + %d faults)",
			misses, limit, baseMisses, out.Faults.ClockChangeFails)
	}
}
