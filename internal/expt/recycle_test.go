package expt

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/fault"
	"clocksched/internal/kernel"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
)

// shellCase is one cell of the recycling test. spec builds a fresh RunSpec
// each call, since policies carry state.
type shellCase struct {
	name string
	spec func() RunSpec
}

func pastPegPeg(vs bool) kernel.SpeedPolicy {
	return policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{}, policy.BestBounds, vs)
}

func zoo(algo policy.ZooAlgo) kernel.SpeedPolicy {
	z, err := policy.NewZooScheduler(algo, 5)
	if err != nil {
		panic(err) // the three algorithms and slack are constants
	}
	return z
}

// shellCases spans what a run can leave behind in its simulator: constant
// and scaled speeds, a retained timeline (a captured trace, a DAQ
// sample-fault plan), a watchdog, every event-driven workload under a zoo
// policy and web on a second seed, the control loop, the elastic player,
// and two failed runs.
func shellCases() []shellCase {
	const d = 2 * sim.Second
	mpeg := func(edit func(*RunSpec)) func() RunSpec {
		return func() RunSpec {
			s := RunSpec{Workload: "mpeg", Seed: 3, Duration: d, Policy: pastPegPeg(false),
				InitialStep: cpu.MaxStep, Stream: true}
			if edit != nil {
				edit(&s)
			}
			return s
		}
	}
	return []shellCase{
		{"constant-132.7", mpeg(func(s *RunSpec) { s.Policy, s.InitialStep = nil, cpu.NearestStep(132700) })},
		{"past-peg-peg-vs", mpeg(func(s *RunSpec) { s.Policy = pastPegPeg(true) })},
		{"capture-trace", mpeg(func(s *RunSpec) { s.Stream = false })},
		{"daq-sample-faults", mpeg(func(s *RunSpec) {
			s.Faults = &fault.Plan{ClockChangeFailProb: 0.05, SampleDropProb: 0.01, SampleGlitchProb: 0.01}
		})},
		{"watchdog", func() RunSpec {
			return RunSpec{Workload: "rect", Seed: 1, Duration: d, Policy: pastPegPeg(false), InitialStep: cpu.MaxStep,
				Watchdog: &policy.WatchdogConfig{Window: 30, MaxReversals: 5}, Stream: true}
		}},
		{"oa-web", func() RunSpec {
			return RunSpec{Workload: "web", Seed: 7, Duration: d, Policy: zoo(policy.AlgoOA), InitialStep: cpu.MaxStep, Stream: true}
		}},
		// Another web seed, long enough to replay scrolls that differ from
		// seed 7's: a shell that kept its last trace fails here.
		{"web-seed8", func() RunSpec {
			return RunSpec{Workload: "web", Seed: 8, Duration: 5 * d, Policy: pastPegPeg(false), InitialStep: cpu.MaxStep, Stream: true}
		}},
		{"bkp-chess", func() RunSpec {
			return RunSpec{Workload: "chess", Seed: 7, Duration: d, Policy: zoo(policy.AlgoBKP), InitialStep: cpu.MaxStep, Stream: true}
		}},
		{"avr-editor", func() RunSpec {
			return RunSpec{Workload: "editor", Seed: 7, Duration: d, Policy: zoo(policy.AlgoAVR), InitialStep: cpu.MaxStep, Stream: true}
		}},
		{"feedback", func() RunSpec {
			return RunSpec{Workload: "feedback", Seed: 5, Duration: d, Policy: pastPegPeg(false), InitialStep: cpu.MaxStep, Stream: true}
		}},
		{"mpeg-drop", mpeg(func(s *RunSpec) { s.Workload, s.Policy, s.InitialStep = "mpeg-drop", nil, cpu.Step(3) })},
		{"cancelled", mpeg(func(s *RunSpec) {
			quanta := 0
			s.Cancel = func() error {
				if quanta++; quanta > 50 {
					return context.Canceled
				}
				return nil
			}
		})},
		{"event-cap", mpeg(func(s *RunSpec) { s.EventCap = 100 })},
	}
}

// shellDigest prints every figure the public Result is built from — the
// measurement, the deadline counts, the kernel's counters, log totals,
// residency and utilization trace, the retained timeline, the fault,
// watchdog and governor tallies — or the run's error.
func shellDigest(out *RunOutcome, err error) string {
	if err != nil {
		return "err=" + err.Error()
	}
	k := out.Kernel
	decisions, idle, switches := k.LogTotals()
	s := digest(out) + fmt.Sprintf(" volt=%d failed=%d stall=%v fired=%d log=%d/%d/%d residency=%v util=%v",
		k.VoltageChanges(), k.FailedSpeedChanges(), k.StallTime(), k.Engine().Fired(),
		decisions, idle, switches, k.Residency(), k.UtilLog())
	if pts, err := k.Recorder().Points(); err == nil {
		s += fmt.Sprintf(" points=%v", pts)
	}
	if out.Watchdog != nil {
		s += fmt.Sprintf(" watchdog=%+v/%v", out.Watchdog.Trips(), out.Watchdog.InSafeMode())
	}
	if g, ok := out.Spec.Policy.(*policy.Governor); ok {
		up, down := g.ScaleCounts()
		s += fmt.Sprintf(" scale=%d/%d", up, down)
	}
	return s
}

// TestRecycledShellMatchesFresh runs every ordered pair (A, B) of cells on
// one explicit simulator shell and checks that B reports exactly what it
// reports on a new shell, whatever A left behind: a finished, failed or
// cancelled run, a retained timeline, another workload or power state.
func TestRecycledShellMatchesFresh(t *testing.T) {
	ctx := context.Background()
	cases := shellCases()
	fresh := make(map[string]string, len(cases))
	for _, c := range cases {
		fresh[c.name] = shellDigest(new(cellSim).run(ctx, c.spec()))
	}
	for _, name := range []string{"cancelled", "event-cap"} {
		if d := fresh[name]; len(d) < 4 || d[:4] != "err=" {
			t.Fatalf("%s cell did not fail: %.200s", name, d)
		}
	}
	for _, a := range cases {
		for _, b := range cases {
			sh := new(cellSim)
			sh.run(ctx, a.spec())
			if got := shellDigest(sh.run(ctx, b.spec())); got != fresh[b.name] {
				t.Errorf("%s after %s differs from %s on a new shell:\n got %.300s\nwant %.300s",
					b.name, a.name, b.name, got, fresh[b.name])
			}
		}
	}
}

// TestReleaseHoldsNothing checks what Release leaves in the pool. An
// outcome whose run retained its whole timeline — a 60 s captured trace —
// is never pooled, so Release leaves it whole. A streamed outcome is
// pooled, DAQ sample faults or not, and resetting its shell drops every
// reference to the run.
func TestReleaseHoldsNothing(t *testing.T) {
	ctx := context.Background()
	out, err := RunContext(ctx, RunSpec{Workload: "mpeg", Seed: 1, Duration: 60 * sim.Second,
		Policy: pastPegPeg(false), InitialStep: cpu.MaxStep})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := out.Kernel.Recorder().Points()
	if err != nil || len(pts) < 1000 {
		t.Fatalf("a 60 s retained run kept %d points (err %v)", len(pts), err)
	}
	out.Release()
	if out.Kernel == nil || out.Workload == nil {
		t.Errorf("Release pooled a simulator holding a %d-point timeline", len(pts))
	}

	sh := new(cellSim)
	reg := telemetry.New()
	out, err = sh.run(ctx, RunSpec{Workload: "mpeg", Seed: 1, Duration: 2 * sim.Second, Policy: pastPegPeg(false),
		InitialStep: cpu.MaxStep, Stream: true, Telemetry: reg, Cancel: func() error { return nil },
		Faults: &fault.Plan{ClockChangeFailProb: 0.01, SampleDropProb: 0.01, SampleGlitchProb: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if out.sim != sh {
		t.Fatal("a streamed outcome with DAQ sample faults is not poolable")
	}
	if out.Faults.SamplesDropped == 0 || out.Faults.SamplesGlitched == 0 {
		t.Fatalf("the plan injected no sample faults: %+v", out.Faults)
	}
	sh.reset()
	if sh.out.Kernel != nil || sh.out.Workload != nil || sh.out.Spec.Policy != nil || sh.out.Spec.Cancel != nil ||
		sh.out.Spec.Telemetry != nil || sh.out.Spec.Faults != nil || sh.out.sim != nil {
		t.Error("a reset shell's outcome still references the run")
	}
	if !holdsNoReference(reflect.ValueOf(sh.fold)) {
		t.Error("a reset shell's DAQ fold still references the run")
	}
	if sh.k.Engine() != nil || len(sh.k.Processes()) != 0 {
		t.Error("a reset shell's kernel still references the run")
	}
}

// holdsNoReference reports whether v holds no non-nil pointer, interface,
// map, func or channel, walking structs field by field and slices element
// by element up to their capacity: nothing that could keep another object
// alive, apart from a slice's own backing array.
func holdsNoReference(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return v.IsNil()
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !holdsNoReference(v.Field(i)) {
				return false
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			v = v.Slice(0, v.Cap())
		}
		for i := 0; i < v.Len(); i++ {
			if !holdsNoReference(v.Index(i)) {
				return false
			}
		}
	}
	return true
}

// TestUnreleasedOutcomeKeepsTrace checks that an outcome never released
// keeps the input trace its workload replays: the trace lives in the
// outcome's shell, which later runs through the pool — other seeds, every
// interactive workload, each released — never take.
func TestUnreleasedOutcomeKeepsTrace(t *testing.T) {
	ctx := context.Background()
	spec := func(w string, seed uint64) RunSpec {
		return RunSpec{Workload: w, Seed: seed, Duration: 2 * sim.Second, Policy: pastPegPeg(false),
			InitialStep: cpu.MaxStep, Stream: true}
	}
	kept, err := RunContext(ctx, spec("web", 7))
	if err != nil {
		t.Fatal(err)
	}
	if kept.sim == nil {
		t.Fatal("a streamed web outcome is not poolable")
	}
	tr, err := kept.sim.tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(tr.Events)
	for seed := uint64(8); seed < 11; seed++ {
		for _, w := range []string{"web", "chess", "editor", "feedback"} {
			out, err := RunContext(ctx, spec(w, seed))
			if err != nil {
				t.Fatal(err)
			}
			out.Release()
		}
	}
	if tr.Name != "web" || !slices.Equal(tr.Events, want) {
		t.Errorf("later runs rewrote an unreleased outcome's trace: now %q with %d events, was web with %d",
			tr.Name, len(tr.Events), len(want))
	}
}

// TestReleaseConcurrent runs cells through the pool from several
// goroutines at once, releasing each outcome, and checks every run against
// its run on a new shell: a pooled simulator is never shared by two runs.
func TestReleaseConcurrent(t *testing.T) {
	ctx := context.Background()
	cases := shellCases()
	fresh := make([]string, len(cases))
	for i, c := range cases {
		fresh[i] = shellDigest(new(cellSim).run(ctx, c.spec()))
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range cases {
					c := cases[(i+w)%len(cases)]
					out, err := RunContext(ctx, c.spec())
					if got := shellDigest(out, err); got != fresh[(i+w)%len(cases)] {
						t.Errorf("worker %d: pooled %s differs from a new shell's", w, c.name)
					}
					if err == nil {
						out.Release()
					}
				}
			}
		}()
	}
	wg.Wait()
}
