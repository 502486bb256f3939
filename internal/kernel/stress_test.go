package kernel

import (
	"fmt"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

// chaosProgram emits a random mix of every action kind, driven by a seeded
// generator, and records how much busy time it believes it asked for.
type chaosProgram struct {
	rng  *sim.RNG
	name string
	step int
}

func (c *chaosProgram) Name() string { return c.name }

func (c *chaosProgram) Next(now sim.Time) Action {
	c.step++
	switch c.rng.Int63n(6) {
	case 0:
		return Compute(cpu.Burst{
			Core:  c.rng.Int63n(3_000_000),
			Mem:   c.rng.Int63n(100_000),
			Cache: c.rng.Int63n(20_000),
		})
	case 1:
		return ComputeFor(c.rng.Duration(0, 15*sim.Millisecond))
	case 2:
		return SpinUntil(now + c.rng.Duration(0, 8*sim.Millisecond))
	case 3:
		return SleepFor(c.rng.Duration(0, 25*sim.Millisecond))
	case 4:
		return SleepUntil(now + c.rng.Duration(0, 25*sim.Millisecond))
	default:
		// Mostly keep going; occasionally a zero-work action.
		return Compute(cpu.Burst{Core: c.rng.Int63n(500_000)})
	}
}

// chaosPolicy makes random legal policy decisions.
type chaosPolicy struct{ rng *sim.RNG }

func (p *chaosPolicy) OnQuantum(_ sim.Time, _ int, cur cpu.Step, _ cpu.Voltage) (cpu.Step, cpu.Voltage) {
	s := cpu.Step(p.rng.Int63n(cpu.NumSteps))
	v := cpu.VHigh
	if p.rng.Bool(0.5) && cpu.VoltageOK(s, cpu.VLow) {
		v = cpu.VLow
	}
	return s, v
}

// TestKernelChaos runs several random programs under a random policy and
// checks the conservation invariants that must hold regardless of
// scheduling order: CPU time ≤ wall time, utilization within bounds,
// residency accounts for the whole run, the power timeline is complete,
// and the run is deterministic.
func TestKernelChaos(t *testing.T) {
	const wall = 20 * sim.Second
	run := func(seed uint64) (total sim.Duration, energy float64) {
		eng := &sim.Engine{}
		cfg := utilConfig()
		cfg.Policy = &chaosPolicy{rng: sim.NewRNG(seed + 1000)}
		k, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*Process, 4)
		for i := range procs {
			p, err := k.Spawn(&chaosProgram{
				rng:  sim.NewRNG(seed + uint64(i)),
				name: fmt.Sprintf("chaos-%d", i),
			})
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = p
		}
		if err := k.Run(wall); err != nil {
			t.Fatal(err)
		}

		for _, p := range procs {
			if p.CPUTime() < 0 || p.CPUTime() > wall {
				t.Fatalf("process %s CPU time %v out of [0, %v]", p.Name(), p.CPUTime(), wall)
			}
			total += p.CPUTime()
		}
		// Total CPU time can't exceed wall time (single processor), and
		// stall time is on top of process time.
		if total+k.StallTime() > wall {
			t.Fatalf("CPU time %v + stalls %v exceeds wall %v", total, k.StallTime(), wall)
		}
		for _, u := range k.UtilLog() {
			if u.PP10K < 0 || u.PP10K > 10000 {
				t.Fatalf("utilization %d out of range", u.PP10K)
			}
		}
		var res sim.Duration
		for _, d := range k.Residency() {
			res += d
		}
		if res != wall {
			t.Fatalf("residency %v != wall %v", res, wall)
		}
		e, err := k.Recorder().Energy(0, wall)
		if err != nil {
			t.Fatal(err)
		}
		if e <= 0 {
			t.Fatal("non-positive energy")
		}
		return total, e
	}

	for seed := uint64(1); seed <= 8; seed++ {
		a1, e1 := run(seed)
		a2, e2 := run(seed)
		if a1 != a2 || e1 != e2 {
			t.Fatalf("seed %d not deterministic: %v/%v vs %v/%v", seed, a1, e1, a2, e2)
		}
	}
}

// TestKernelChaosWithWakes adds externally-scheduled wakes racing the
// random policy's stalls, covering the Wake-during-stall and
// Wake-during-idle paths.
func TestKernelChaosWithWakes(t *testing.T) {
	eng := &sim.Engine{}
	cfg := DefaultConfig()
	cfg.Policy = &chaosPolicy{rng: sim.NewRNG(99)}
	k, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := k.Spawn(ProgramFunc{ProgName: "waiter", Fn: func(now sim.Time) Action {
		if now.Seconds() > 4.5 {
			return Exit()
		}
		return WaitEvent()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn(&chaosProgram{rng: sim.NewRNG(7), name: "load"}); err != nil {
		t.Fatal(err)
	}
	// Wake the waiter at arbitrary offsets, many of which land inside
	// stalls or ticks.
	rng := sim.NewRNG(5)
	for at := sim.Time(0); at < 5*sim.Second; {
		at += rng.Duration(sim.Millisecond, 60*sim.Millisecond)
		if _, err := eng.At(at, func(sim.Time) { k.Wake(waiter) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if waiter.State() != StateExited {
		t.Errorf("waiter state = %v, want exited", waiter.State())
	}
}

// TestSpawnMidRun launches a process from an engine event while the kernel
// is running — how a shell would fork a new application mid-session.
func TestSpawnMidRun(t *testing.T) {
	eng := &sim.Engine{}
	k, err := New(eng, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var late *Process
	if _, err := eng.At(500*sim.Millisecond, func(sim.Time) {
		p, err := k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}})
		if err != nil {
			t.Error(err)
			return
		}
		late = p
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if late == nil {
		t.Fatal("mid-run spawn never happened")
	}
	// The late process ran for roughly the remaining half second.
	if got := late.CPUTime(); got < 450*sim.Millisecond || got > 510*sim.Millisecond {
		t.Errorf("late process CPU time = %v, want ≈500ms", got)
	}
}
