package kernel

import (
	"errors"
	"math"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/power"
	"clocksched/internal/sim"
)

// busyLoop is a program that computes forever in bursts of the given size.
type busyLoop struct{ burst cpu.Burst }

func (b busyLoop) Next(sim.Time) Action { return Compute(b.burst) }
func (b busyLoop) Name() string         { return "busy" }

// periodic computes for onDur then sleeps for offDur, forever.
type periodic struct {
	onDur, offDur sim.Duration
	working       bool
}

func (p *periodic) Next(sim.Time) Action {
	p.working = !p.working
	if p.working {
		return ComputeFor(p.onDur)
	}
	return SleepFor(p.offDur)
}
func (p *periodic) Name() string { return "periodic" }

func newKernel(t *testing.T, cfg Config) (*sim.Engine, *Kernel) {
	t.Helper()
	eng := &sim.Engine{}
	k, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, k
}

// utilConfig is the default configuration with the per-quantum utilization
// log retained, for tests that inspect individual quanta.
func utilConfig() Config {
	cfg := DefaultConfig()
	cfg.RetainUtilLog = true
	return cfg
}

func TestNewValidation(t *testing.T) {
	eng := &sim.Engine{}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("nil engine accepted")
	}
	cfg := DefaultConfig()
	cfg.Quantum = -1
	if _, err := New(eng, cfg); err == nil {
		t.Error("negative quantum accepted")
	}
	cfg = DefaultConfig()
	cfg.SchedOverhead = 20 * sim.Millisecond
	if _, err := New(eng, cfg); err == nil {
		t.Error("overhead above quantum accepted")
	}
	cfg = DefaultConfig()
	cfg.InitialStep = cpu.Step(99)
	if _, err := New(eng, cfg); err == nil {
		t.Error("invalid step accepted")
	}
	cfg = DefaultConfig()
	cfg.InitialV = cpu.VLow // unsafe at 206.4 MHz
	if _, err := New(eng, cfg); err == nil {
		t.Error("unsafe voltage accepted")
	}
	// Engine not at time zero.
	eng2 := &sim.Engine{}
	eng2.At(5, func(sim.Time) {})
	eng2.Run()
	if _, err := New(eng2, DefaultConfig()); err == nil {
		t.Error("non-zero engine accepted")
	}
}

func TestIdleRun(t *testing.T) {
	_, k := newKernel(t, utilConfig())
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	// 100 quanta, each with only the 6 µs scheduler overhead busy.
	if len(k.UtilLog()) != 100 {
		t.Fatalf("%d utilization samples, want 100", len(k.UtilLog()))
	}
	for _, u := range k.UtilLog() {
		if u.PP10K != 6 {
			t.Fatalf("idle quantum utilization = %d PP10K, want 6 (overhead only)", u.PP10K)
		}
	}
	// Energy is nap power for a second.
	m := power.DefaultModel()
	napW := m.Power(power.State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: power.ModeNap})
	e, err := k.Recorder().Energy(0, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-napW) > 1e-9 {
		t.Errorf("idle energy = %v J, want %v", e, napW)
	}
}

func TestBusyRun(t *testing.T) {
	_, k := newKernel(t, utilConfig())
	if _, err := k.Spawn(busyLoop{burst: cpu.Burst{Core: 1_000_000}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	for _, u := range k.UtilLog() {
		if u.PP10K != 10000 {
			t.Fatalf("busy quantum utilization = %d, want 10000", u.PP10K)
		}
	}
	// Energy is active power for a second.
	m := power.DefaultModel()
	activeW := m.Power(power.State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: power.ModeActive})
	e, _ := k.Recorder().Energy(0, sim.Second)
	if math.Abs(e-activeW) > 1e-6 {
		t.Errorf("busy energy = %v J, want %v", e, activeW)
	}
}

func TestComputeBurstDuration(t *testing.T) {
	// One burst of exactly 25 ms at 206.4 MHz, then wait forever: the
	// process's CPU time must be 25 ms ± rounding.
	_, k := newKernel(t, DefaultConfig())
	done := false
	var doneAt sim.Time
	prog := ProgramFunc{ProgName: "oneshot", Fn: func(now sim.Time) Action {
		if done {
			return WaitEvent()
		}
		done = true
		return Compute(cpu.Burst{Core: 206400 * 25}) // 25 ms worth of cycles
	}}
	p, err := k.Spawn(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	_ = doneAt
	if got := p.CPUTime(); got < 25*sim.Millisecond-5 || got > 25*sim.Millisecond+20 {
		t.Errorf("one-shot CPU time = %v, want ≈25ms", got)
	}
	if p.State() != StateWaiting {
		t.Errorf("state = %v, want waiting", p.State())
	}
}

func TestFrequencyScalesComputeTime(t *testing.T) {
	// The same cycle count takes ~3.5× longer at 59 MHz.
	run := func(step cpu.Step) sim.Duration {
		cfg := DefaultConfig()
		cfg.InitialStep = step
		_, k := newKernel(t, cfg)
		started := false
		prog := ProgramFunc{ProgName: "oneshot", Fn: func(sim.Time) Action {
			if started {
				return WaitEvent()
			}
			started = true
			return Compute(cpu.Burst{Core: 2_064_000}) // 10 ms at max step
		}}
		p, _ := k.Spawn(prog)
		if err := k.Run(sim.Second); err != nil {
			t.Fatal(err)
		}
		return p.CPUTime()
	}
	fast := run(cpu.MaxStep)
	slow := run(cpu.MinStep)
	ratio := float64(slow) / float64(fast)
	want := float64(cpu.MaxStep.KHz()) / float64(cpu.MinStep.KHz())
	if math.Abs(ratio-want) > 0.01 {
		t.Errorf("slow/fast = %v, want %v", ratio, want)
	}
}

func TestPartialUtilization(t *testing.T) {
	// 4 ms busy then 6 ms sleep, aligned with quanta: utilization ≈ 40%.
	_, k := newKernel(t, utilConfig())
	if _, err := k.Spawn(&periodic{onDur: 4 * sim.Millisecond, offDur: 6 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, u := range k.UtilLog() {
		if u.PP10K < 3900 || u.PP10K > 4100 {
			t.Fatalf("quantum %d utilization = %d, want ≈4000", i, u.PP10K)
		}
	}
}

func TestRoundRobinFairness(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	a, _ := k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}})
	b, _ := k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}})
	if err := k.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	ta, tb := a.CPUTime(), b.CPUTime()
	total := ta + tb
	if total < 2*sim.Second-20*sim.Millisecond {
		t.Errorf("combined CPU time %v, want ≈2s", total)
	}
	imbalance := math.Abs(float64(ta-tb)) / float64(total)
	if imbalance > 0.02 {
		t.Errorf("unfair split: %v vs %v", ta, tb)
	}
}

func TestSchedLogRecordsDecisions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetainSchedLog = true
	_, k := newKernel(t, cfg)
	p, _ := k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}})
	if err := k.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	log := k.SchedLog()
	if len(log) < 10 {
		t.Fatalf("only %d scheduler log entries", len(log))
	}
	for _, e := range log {
		if e.PID != p.PID() {
			t.Fatalf("unexpected pid %d in log", e.PID)
		}
		if e.KHz != cpu.MaxStep.KHz() {
			t.Fatalf("log clock rate = %d", e.KHz)
		}
	}
}

func TestIdleLogsPIDZero(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetainSchedLog = true
	_, k := newKernel(t, cfg)
	if err := k.Run(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, e := range k.SchedLog() {
		if e.PID != 0 {
			t.Fatalf("idle system logged pid %d", e.PID)
		}
	}
	if len(k.SchedLog()) == 0 {
		t.Fatal("no idle scheduling decisions logged")
	}
}

// stepPolicy switches to a fixed step on the first quantum.
type stepPolicy struct {
	to      cpu.Step
	v       cpu.Voltage
	applied bool
}

func (s *stepPolicy) OnQuantum(_ sim.Time, _ int, cur cpu.Step, curV cpu.Voltage) (cpu.Step, cpu.Voltage) {
	if s.applied {
		return cur, curV
	}
	s.applied = true
	return s.to, s.v
}

func TestPolicyChangesSpeedWithStall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = &stepPolicy{to: cpu.MinStep, v: cpu.VHigh}
	_, k := newKernel(t, cfg)
	if _, err := k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if k.Step() != cpu.MinStep {
		t.Errorf("step = %v, want 59MHz", k.Step())
	}
	if k.SpeedChanges() != 1 {
		t.Errorf("speed changes = %d, want 1", k.SpeedChanges())
	}
	if k.StallTime() != cpu.ClockChangeStall {
		t.Errorf("stall time = %v, want %dµs", k.StallTime(), cpu.ClockChangeStall)
	}
	// Residency: 10 ms at max (before the first tick), the rest at min.
	res := k.Residency()
	if res[cpu.MaxStep] != 10*sim.Millisecond {
		t.Errorf("residency at max = %v, want 10ms", res[cpu.MaxStep])
	}
	if res[cpu.MinStep] != sim.Second-10*sim.Millisecond {
		t.Errorf("residency at min = %v", res[cpu.MinStep])
	}
}

func TestVoltageDropSettles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialStep = cpu.Step(5) // 132.7 MHz allows 1.23 V
	cfg.Policy = &stepPolicy{to: cpu.Step(5), v: cpu.VLow}
	_, k := newKernel(t, cfg)
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if k.Voltage() != cpu.VLow {
		t.Fatalf("voltage = %v, want 1.23V", k.Voltage())
	}
	if k.VoltageChanges() != 1 {
		t.Errorf("voltage changes = %d, want 1", k.VoltageChanges())
	}
	// The power rail must stay at 1.5 V for the settle time after the
	// drop at t=10ms: power at 10.1 ms still reflects 1.5 V nap, power at
	// 10.3 ms reflects 1.23 V nap.
	m := cfg.Model
	before, _ := k.Recorder().PowerAt(10*sim.Millisecond + 100)
	after, _ := k.Recorder().PowerAt(10*sim.Millisecond + 300)
	wantHi := m.Power(power.State{Step: cpu.Step(5), V: cpu.VHigh, Mode: power.ModeNap})
	wantLo := m.Power(power.State{Step: cpu.Step(5), V: cpu.VLow, Mode: power.ModeNap})
	if math.Abs(before-wantHi) > 1e-9 {
		t.Errorf("power during settle = %v, want %v (still high)", before, wantHi)
	}
	if math.Abs(after-wantLo) > 1e-9 {
		t.Errorf("power after settle = %v, want %v", after, wantLo)
	}
}

func TestUnsafeVoltageRequestIsRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = &stepPolicy{to: cpu.MaxStep, v: cpu.VLow} // 1.23 V at 206.4 MHz: unsafe
	_, k := newKernel(t, cfg)
	if err := k.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Voltage() != cpu.VHigh {
		t.Errorf("kernel accepted unsafe voltage: %v", k.Voltage())
	}
}

func TestSleepWakeTiming(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	var wokeAt sim.Time
	phase := 0
	prog := ProgramFunc{ProgName: "sleeper", Fn: func(now sim.Time) Action {
		switch phase {
		case 0:
			phase = 1
			return SleepFor(123 * sim.Millisecond)
		case 1:
			phase = 2
			wokeAt = now
			return Exit()
		}
		return Exit()
	}}
	p, _ := k.Spawn(prog)
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 123*sim.Millisecond {
		t.Errorf("woke at %v, want 123ms", wokeAt)
	}
	if p.State() != StateExited {
		t.Errorf("state = %v, want exited", p.State())
	}
}

func TestWaitEventAndWake(t *testing.T) {
	eng, k := newKernel(t, DefaultConfig())
	var wokeAt sim.Time
	phase := 0
	prog := ProgramFunc{ProgName: "waiter", Fn: func(now sim.Time) Action {
		switch phase {
		case 0:
			phase = 1
			return WaitEvent()
		default:
			if wokeAt == 0 {
				wokeAt = now
			}
			return ComputeFor(sim.Millisecond)
		}
	}}
	p, _ := k.Spawn(prog)
	// Deliver the event mid-quantum at t=34.5ms.
	if _, err := eng.At(34500, func(sim.Time) { k.Wake(p) }); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 34500 {
		t.Errorf("woke at %v, want 34.5ms (immediate dispatch from idle)", wokeAt)
	}
}

func TestWakeIsIdempotent(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	p, _ := k.Spawn(busyLoop{burst: cpu.Burst{Core: 1000}})
	k.Wake(p) // runnable: no-op
	k.Wake(nil)
	if err := k.Run(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The process must appear exactly once per queue cycle — CPU time
	// accounts for the whole run.
	if p.CPUTime() < 19*sim.Millisecond {
		t.Errorf("cpu time = %v after double wake", p.CPUTime())
	}
}

func TestSpinUntilCountsBusy(t *testing.T) {
	_, k := newKernel(t, utilConfig())
	phase := 0
	prog := ProgramFunc{ProgName: "spinner", Fn: func(now sim.Time) Action {
		switch phase {
		case 0:
			phase = 1
			return SpinUntil(25 * sim.Millisecond)
		default:
			return WaitEvent()
		}
	}}
	p, _ := k.Spawn(prog)
	if err := k.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := p.CPUTime(); got != 25*sim.Millisecond {
		t.Errorf("spin CPU time = %v, want 25ms", got)
	}
	// The first two quanta were fully busy.
	if k.UtilLog()[0].PP10K != 10000 || k.UtilLog()[1].PP10K != 10000 {
		t.Errorf("spin quanta utilization = %d, %d",
			k.UtilLog()[0].PP10K, k.UtilLog()[1].PP10K)
	}
}

func TestExitRemovesProcess(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	calls := 0
	prog := ProgramFunc{ProgName: "quitter", Fn: func(sim.Time) Action {
		calls++
		if calls == 1 {
			return ComputeFor(5 * sim.Millisecond)
		}
		return Exit()
	}}
	p, _ := k.Spawn(prog)
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if p.State() != StateExited {
		t.Fatalf("state = %v", p.State())
	}
	if calls != 2 {
		t.Errorf("program called %d times after exit", calls)
	}
	if p.CPUTime() != 5*sim.Millisecond {
		t.Errorf("cpu time = %v", p.CPUTime())
	}
}

func TestBrokenProgramReturnsError(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	p, err := k.Spawn(ProgramFunc{ProgName: "broken", Fn: func(sim.Time) Action {
		return Compute(cpu.Burst{}) // zero work, forever
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.Second); !errors.Is(err, ErrProgramSpin) {
		t.Fatalf("Run = %v, want ErrProgramSpin", err)
	}
	if p.State() != StateExited {
		t.Errorf("broken program state = %v, want exited (quarantined)", p.State())
	}
}

func TestUnknownActionReturnsError(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	if _, err := k.Spawn(ProgramFunc{ProgName: "bogus", Fn: func(sim.Time) Action {
		return Action{Kind: ActionKind(99)}
	}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.Second); !errors.Is(err, ErrUnknownAction) {
		t.Fatalf("Run = %v, want ErrUnknownAction", err)
	}
}

func TestEventCapAbortsRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EventCap = 100
	_, k := newKernel(t, cfg)
	// A well-behaved busy loop still fires completion + tick events; the
	// tiny cap must abort the run with a diagnostic instead of hanging.
	if _, err := k.Spawn(busyLoop{burst: cpu.Burst{Core: 1000}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(100 * sim.Second); !errors.Is(err, sim.ErrEventCap) {
		t.Fatalf("Run = %v, want ErrEventCap", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	if err := k.Run(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(20 * sim.Millisecond); err == nil {
		t.Error("second Run accepted")
	}
	if _, err := k.Spawn(busyLoop{}); err == nil {
		t.Error("Spawn after Run accepted")
	}
}

func TestRunValidation(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	if err := k.Run(0); err == nil {
		t.Error("Run(0) accepted")
	}
}

func TestSpawnValidation(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	if _, err := k.Spawn(nil); err == nil {
		t.Error("nil program accepted")
	}
}

func TestPIDsAreSequential(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	a, _ := k.Spawn(busyLoop{burst: cpu.Burst{Core: 1000}})
	b, _ := k.Spawn(busyLoop{burst: cpu.Burst{Core: 1000}})
	if a.PID() != 1 || b.PID() != 2 {
		t.Errorf("pids = %d, %d; want 1, 2", a.PID(), b.PID())
	}
	if len(k.Processes()) != 2 {
		t.Errorf("Processes() has %d entries", len(k.Processes()))
	}
	if a.Name() != "busy" {
		t.Errorf("name = %q", a.Name())
	}
}

func TestActionKindStrings(t *testing.T) {
	kinds := map[ActionKind]string{
		ActCompute: "compute", ActComputeFor: "compute-for",
		ActSpinUntil: "spin-until", ActSleepFor: "sleep-for",
		ActSleepUntil: "sleep-until", ActWaitEvent: "wait-event", ActExit: "exit",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if ActionKind(99).String() != "ActionKind(99)" {
		t.Error("unknown kind string")
	}
}

func TestProcStateStrings(t *testing.T) {
	states := map[ProcState]string{
		StateRunnable: "runnable", StateSleeping: "sleeping",
		StateWaiting: "waiting", StateExited: "exited",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("state string = %q, want %q", s.String(), want)
		}
	}
	if ProcState(42).String() != "ProcState(42)" {
		t.Error("unknown state string")
	}
}

func TestSleepUntilAndPastDeadlinesSkip(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	var times []sim.Time
	phase := 0
	prog := ProgramFunc{ProgName: "untiler", Fn: func(now sim.Time) Action {
		times = append(times, now)
		phase++
		switch phase {
		case 1:
			return SleepUntil(40 * sim.Millisecond)
		case 2:
			return SleepUntil(10 * sim.Millisecond) // already past: skipped
		case 3:
			return SpinUntil(5 * sim.Millisecond) // already past: skipped
		case 4:
			return SleepFor(-5) // non-positive: skipped
		case 5:
			return ComputeFor(0) // non-positive: skipped
		default:
			return Exit()
		}
	}}
	if _, err := k.Spawn(prog); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(times) != 6 {
		t.Fatalf("program called %d times, want 6", len(times))
	}
	if times[1] != 40*sim.Millisecond {
		t.Errorf("second call at %v, want 40ms", times[1])
	}
	// Calls 3..6 happen immediately at 40 ms (all degenerate actions).
	for i := 2; i < 6; i++ {
		if times[i] != 40*sim.Millisecond {
			t.Errorf("call %d at %v, want 40ms", i, times[i])
		}
	}
}

func TestEnergyDropsAtLowerStep(t *testing.T) {
	// The same busy workload at 59 MHz uses less power (but the burst
	// work rate also drops — this checks the power side only, with
	// always-busy load).
	run := func(step cpu.Step) float64 {
		cfg := DefaultConfig()
		cfg.InitialStep = step
		_, k := newKernel(t, cfg)
		k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}})
		if err := k.Run(sim.Second); err != nil {
			t.Fatal(err)
		}
		e, err := k.Recorder().Energy(0, sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if eFast, eSlow := run(cpu.MaxStep), run(cpu.MinStep); eSlow >= eFast {
		t.Errorf("busy energy at 59MHz (%v) not below 206MHz (%v)", eSlow, eFast)
	}
}

func TestManyProcessesConservation(t *testing.T) {
	// CPU time across N busy processes plus idle must equal wall time.
	_, k := newKernel(t, DefaultConfig())
	procs := make([]*Process, 5)
	for i := range procs {
		procs[i], _ = k.Spawn(busyLoop{burst: cpu.Burst{Core: 300_000}})
	}
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	var total sim.Duration
	for _, p := range procs {
		total += p.CPUTime()
	}
	if total < sim.Second-30*sim.Millisecond || total > sim.Second {
		t.Errorf("total CPU time = %v over 1s wall", total)
	}
}

// TestUtilTallyMatchesLog checks that the running quantum tally agrees with
// the retained utilization log, and that without RetainUtilLog the kernel
// keeps no log but tallies the same figures.
func TestUtilTallyMatchesLog(t *testing.T) {
	run := func(cfg Config) *Kernel {
		_, k := newKernel(t, cfg)
		k.Spawn(&periodic{onDur: 4 * sim.Millisecond, offDur: 7 * sim.Millisecond})
		if err := k.Run(sim.Second); err != nil {
			t.Fatal(err)
		}
		return k
	}
	kept, tallied := run(utilConfig()), run(DefaultConfig())
	sum := 0
	for _, u := range kept.UtilLog() {
		sum += u.PP10K
	}
	if kept.Quanta() != len(kept.UtilLog()) || kept.UtilSum() != sum {
		t.Errorf("tally %d quanta / %d PP10K, log %d / %d", kept.Quanta(), kept.UtilSum(), len(kept.UtilLog()), sum)
	}
	if want := float64(sum) / float64(len(kept.UtilLog())) / 10000; kept.MeanUtil() != want {
		t.Errorf("MeanUtil = %v, want %v", kept.MeanUtil(), want)
	}
	if len(tallied.UtilLog()) != 0 {
		t.Errorf("kernel without RetainUtilLog kept %d samples", len(tallied.UtilLog()))
	}
	if tallied.Quanta() != kept.Quanta() || tallied.UtilSum() != kept.UtilSum() {
		t.Errorf("retention changed the tally: %d/%d vs %d/%d",
			tallied.Quanta(), tallied.UtilSum(), kept.Quanta(), kept.UtilSum())
	}
}
