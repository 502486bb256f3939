package policy

import (
	"slices"
	"strings"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

// Boundary values of the deadline rule at due == now: the job is marked
// overdue exactly once (the !overdue guard), and requiredKHz's horizon <= 0
// early return pins the top step, so it still contributes.

func TestDeadlineDueExactlyNowContributes(t *testing.T) {
	d := NewDeadlineScheduler()
	now := sim.Time(10 * sim.Quantum)
	d.Submit(1, now) // one cycle due exactly at the boundary
	// Even a 1-cycle job due at now demands the top step: there is no
	// horizon left to amortize it over.
	if got := d.requiredKHz(now); got != cpu.MaxStep.KHz() {
		t.Fatalf("requiredKHz(due==now) = %d, want top step %d", got, cpu.MaxStep.KHz())
	}
	step, _ := d.OnQuantum(now, 0, cpu.MinStep, cpu.VHigh)
	if step != cpu.MaxStep {
		t.Fatalf("step %v, want pinned %v", step, cpu.MaxStep)
	}
	// Expired exactly once, and the job is still pending — it must not
	// vanish (the work remains) nor double-count.
	if d.Expired != 1 || d.Pending() != 1 {
		t.Fatalf("expired %d pending %d, want 1 and 1", d.Expired, d.Pending())
	}
	// A second quantum at the same deadline state must not re-count it.
	d.OnQuantum(now+sim.Time(sim.Quantum), 0, cpu.MaxStep, cpu.VHigh)
	if d.Expired != 1 || d.Pending() != 1 {
		t.Fatalf("after second quantum: expired %d pending %d, want 1 and 1", d.Expired, d.Pending())
	}
}

func TestDeadlineDueExactlyNowDrainedIsNotExpired(t *testing.T) {
	d := NewDeadlineScheduler()
	now := sim.Time(sim.Quantum)
	// Work that exactly fits one fully-busy quantum at the top step:
	// 10 ms × 206,400 kHz / 1000 = 2,064,000 cycles.
	cycles := int64(sim.Quantum) * cpu.MaxStep.KHz() / 1000
	d.Submit(cycles, now)
	// OnQuantum at the deadline edge retires before marking expiry, so a
	// job whose work completed during the elapsed quantum meets its
	// deadline "as late as possible" without being counted expired.
	d.OnQuantum(now, FullUtil, cpu.MaxStep, cpu.VHigh)
	if d.Expired != 0 {
		t.Fatalf("drained-at-deadline job counted expired (%d)", d.Expired)
	}
	if d.Pending() != 0 {
		t.Fatalf("drained job still pending (%d)", d.Pending())
	}
}

func TestDeadlineDueOneMicrosecondLater(t *testing.T) {
	d := NewDeadlineScheduler()
	now := sim.Time(10 * sim.Quantum)
	d.Submit(1, now+1) // due 1 µs past the boundary: finite horizon
	if got := d.requiredKHz(now); got != 1000 {
		// 1 cycle in 1 µs = 1000 kHz, rounded up.
		t.Fatalf("requiredKHz = %d, want 1000", got)
	}
	d.OnQuantum(now, 0, cpu.MinStep, cpu.VHigh)
	if d.Expired != 0 {
		t.Fatalf("job due after now counted expired")
	}
}

// --- ZooScheduler unit tests.

func TestZooRejectsBadConfig(t *testing.T) {
	if _, err := NewZooScheduler("yds", 3); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := NewZooScheduler(AlgoOA, 0); err == nil {
		t.Error("zero slack accepted")
	}
}

// TestZooDeadlineIsOAOnAppDeadlines checks that the deadline rule is OA
// fed by application deadlines alone: with an application stream from
// before the first quantum the two make the same decisions and keep the
// same queue, and without one the deadline rule never synthesizes a job.
func TestZooDeadlineIsOAOnAppDeadlines(t *testing.T) {
	oa, err := NewZooScheduler(AlgoOA, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeadlineScheduler()
	oa.VoltageScale, d.VoltageScale = true, true
	oa.Submit(1_000_000, sim.Second)
	d.Submit(1_000_000, sim.Second)
	rng := sim.NewRNG(3)
	for q := 0; q < 400; q++ {
		now := sim.Time(q) * sim.Time(sim.Quantum)
		for n := rng.Int63n(3); n > 0; n-- {
			cycles := rng.Int63n(900_000)
			due := now + sim.Time(rng.Int63n(20))*sim.Time(sim.Quantum)
			if a, b := oa.Submit(cycles, due), d.Submit(cycles, due); a != b {
				t.Fatalf("quantum %d: job ids %d and %d", q, a, b)
			}
		}
		if rng.Bool(0.2) {
			id := d.nextID - int(rng.Int63n(4))
			oa.Complete(id)
			d.Complete(id)
		}
		util := int(rng.Int63n(FullUtil + 1))
		step := cpu.Step(rng.Int63n(cpu.NumSteps))
		oaStep, oaV := oa.OnQuantum(now, util, step, cpu.VHigh)
		dStep, dV := d.OnQuantum(now, util, step, cpu.VHigh)
		if oaStep != dStep || oaV != dV {
			t.Fatalf("quantum %d: OA chose %v @ %v, deadline %v @ %v", q, oaStep, oaV, dStep, dV)
		}
		if !slices.Equal(oa.jobs, d.jobs) || oa.Expired != d.Expired {
			t.Fatalf("quantum %d: queues differ:\nOA       %+v (%d expired)\ndeadline %+v (%d expired)",
				q, oa.jobs, oa.Expired, d.jobs, d.Expired)
		}
	}
	if d.Expired == 0 {
		t.Fatal("no job expired: the run never reached the overdue path")
	}

	idle := NewDeadlineScheduler()
	for q := 1; q <= 50; q++ {
		step, _ := idle.OnQuantum(sim.Time(q)*sim.Time(sim.Quantum), FullUtil, cpu.MaxStep, cpu.VHigh)
		if idle.Pending() != 0 || step != cpu.MinStep {
			t.Fatalf("quantum %d: busy quanta with no application left %d pending at %v", q, idle.Pending(), step)
		}
	}
}

func TestZooAVRSumsDensities(t *testing.T) {
	z, err := NewZooScheduler(AlgoAVR, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Two jobs, densities 59 MHz and 20 MHz ⇒ AVR sums to 79 MHz even
	// though OA would only need the max prefix density.
	z.Submit(59_000_000, sim.Second)          // 59,000 kHz over 1 s
	z.Submit(10_000_000, 500*sim.Millisecond) // 20,000 kHz over 500 ms
	if got := z.requiredKHz(0); got != 79_000 {
		t.Fatalf("AVR requires %d kHz, want 79000", got)
	}
}

func TestZooBKPSeesRecentWindowWork(t *testing.T) {
	z, err := NewZooScheduler(AlgoBKP, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One job: 2,064,000 cycles due in 20 ms. Horizon Δ = 20 ms; window
	// [now−(e−1)Δ, now] holds the job (released now). Need = w/Δ =
	// 2,064,000 cycles / 20,000 µs × 1000 = 103,200 kHz.
	z.Submit(2_064_000, 20*sim.Millisecond)
	if got := z.requiredKHz(0); got != 103_200 {
		t.Fatalf("BKP requires %d kHz, want 103200", got)
	}
}

func TestZooOverduePinsTopStep(t *testing.T) {
	for _, algo := range []ZooAlgo{AlgoOA, AlgoAVR, AlgoBKP} {
		z, err := NewZooScheduler(algo, 3)
		if err != nil {
			t.Fatal(err)
		}
		z.Submit(1000, 5*sim.Millisecond)
		step, _ := z.OnQuantum(sim.Time(sim.Quantum), 0, cpu.MinStep, cpu.VHigh)
		if step != cpu.MaxStep {
			t.Errorf("%s: overdue job left step at %v", algo, step)
		}
		if z.Expired != 1 {
			t.Errorf("%s: expired = %d, want 1", algo, z.Expired)
		}
		// Same-state re-quantum must not double count.
		z.OnQuantum(2*sim.Time(sim.Quantum), 0, cpu.MaxStep, cpu.VHigh)
		if z.Expired != 1 {
			t.Errorf("%s: expired re-counted to %d", algo, z.Expired)
		}
	}
}

func TestZooSynthesizesFromUtilization(t *testing.T) {
	z, err := NewZooScheduler(AlgoOA, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A fully busy quantum at the top step synthesizes a job, and OA then
	// asks for enough speed to repeat that work within the slack.
	now := sim.Time(sim.Quantum)
	step, _ := z.OnQuantum(now, FullUtil, cpu.MaxStep, cpu.VHigh)
	if z.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 synthesized job", z.Pending())
	}
	// 2,064,000 cycles due in 3 quanta (30 ms) ⇒ 68,800 kHz ⇒ 73.7 MHz
	// is the slowest sufficient step.
	if want := cpu.StepForKHz(68_800); step != want {
		t.Fatalf("step %v, want %v", step, want)
	}
	// An idle quantum synthesizes nothing.
	z2, _ := NewZooScheduler(AlgoAVR, 3)
	z2.OnQuantum(now, 0, cpu.MaxStep, cpu.VHigh)
	if z2.Pending() != 0 {
		t.Fatalf("idle quantum synthesized %d jobs", z2.Pending())
	}
}

func TestZooAppStreamDisablesSynthesis(t *testing.T) {
	z, err := NewZooScheduler(AlgoOA, 3)
	if err != nil {
		t.Fatal(err)
	}
	z.OnQuantum(sim.Time(sim.Quantum), FullUtil, cpu.MaxStep, cpu.VHigh)
	if z.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 synthesized", z.Pending())
	}
	// The first app submission evicts synthesized jobs and pins the
	// scheduler to the app stream for good.
	id := z.Submit(1_000_000, sim.Second)
	if z.Pending() != 1 {
		t.Fatalf("pending = %d after app submit, want only the app job", z.Pending())
	}
	z.OnQuantum(2*sim.Time(sim.Quantum), FullUtil, cpu.MaxStep, cpu.VHigh)
	// retire drains the app job estimate; no synthesized job may appear.
	for _, j := range z.jobs {
		if j.synthesized {
			t.Fatalf("synthesized job %+v created after app stream started", j)
		}
	}
	z.Complete(id)
	if z.Pending() != 0 {
		t.Fatalf("pending = %d after Complete", z.Pending())
	}
}

func TestZooRetireDrainsEarliestDue(t *testing.T) {
	z, err := NewZooScheduler(AlgoOA, 3)
	if err != nil {
		t.Fatal(err)
	}
	z.Submit(1_000_000, 100*sim.Millisecond)
	z.Submit(5_000_000, sim.Second)
	// One fully busy quantum at top step executes 2,064,000 cycles:
	// drains the first job and 1,064,000 of the second.
	z.OnQuantum(sim.Time(sim.Quantum), FullUtil, cpu.MaxStep, cpu.VHigh)
	if z.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", z.Pending())
	}
	if left := z.jobs[0].cycles; left != 5_000_000-(2_064_000-1_000_000) {
		t.Fatalf("remaining cycles %d", left)
	}
}

func TestZooNames(t *testing.T) {
	z, _ := NewZooScheduler(AlgoBKP, 4)
	if got := z.Name(); got != "BKP(slack=4)" {
		t.Errorf("Name() = %q", got)
	}
	z.VoltageScale = true
	if got := z.Name(); !strings.Contains(got, "voltage scaling") {
		t.Errorf("Name() = %q lacks voltage scaling", got)
	}
	if z.Algo() != AlgoBKP {
		t.Errorf("Algo() = %v", z.Algo())
	}
	if s := z.String(); !strings.Contains(s, "BKP") {
		t.Errorf("String() = %q", s)
	}
}
