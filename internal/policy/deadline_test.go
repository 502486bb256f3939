package policy

import (
	"strings"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

func TestDeadlineSubmitOrdering(t *testing.T) {
	d := NewDeadlineScheduler()
	d.Submit(100, 300)
	d.Submit(100, 100)
	d.Submit(100, 200)
	if d.Pending() != 3 {
		t.Fatalf("pending = %d", d.Pending())
	}
	if d.jobs[0].due != 100 || d.jobs[1].due != 200 || d.jobs[2].due != 300 {
		t.Errorf("jobs not sorted by due: %+v", d.jobs)
	}
}

func TestDeadlineSubmitIgnoresEmptyWork(t *testing.T) {
	d := NewDeadlineScheduler()
	id := d.Submit(0, 100)
	if id == 0 {
		t.Error("id not allocated")
	}
	if d.Pending() != 0 {
		t.Error("empty job queued")
	}
	d.Submit(-5, 100)
	if d.Pending() != 0 {
		t.Error("negative job queued")
	}
}

func TestDeadlineComplete(t *testing.T) {
	d := NewDeadlineScheduler()
	a := d.Submit(100, 100)
	b := d.Submit(100, 200)
	d.Complete(a)
	if d.Pending() != 1 || d.jobs[0].id != b {
		t.Errorf("after complete: %+v", d.jobs)
	}
	d.Complete(9999) // unknown id: no-op
	if d.Pending() != 1 {
		t.Error("unknown Complete removed a job")
	}
}

func TestDeadlineRequiredKHz(t *testing.T) {
	d := NewDeadlineScheduler()
	// 59,000 kcycles due in 1 s needs exactly 59 MHz.
	d.Submit(59_000_000, sim.Second)
	if got := d.requiredKHz(0); got != 59_000 {
		t.Errorf("requiredKHz = %d, want 59000", got)
	}
	// Add a tighter job: 103,200 kcycles more due at 500 ms: by then
	// 103.2M+0 (the 1s job is later)... cumulative ordering: the 500ms
	// job comes first, needing 103.2M/0.5s = 206.4 MHz.
	d.Submit(103_200_000, 500*sim.Millisecond)
	if got := d.requiredKHz(0); got != 206_400 {
		t.Errorf("requiredKHz = %d, want 206400", got)
	}
}

func TestDeadlineRequiredKHzCumulative(t *testing.T) {
	// Two jobs each feasible alone can be infeasible together: the
	// prefix-sum test must catch the later deadline.
	d := NewDeadlineScheduler()
	d.Submit(59_000_000, sim.Second)    // 59 MHz alone
	d.Submit(118_000_000, 2*sim.Second) // 59 MHz alone
	// Together: by t=2s we owe 177M cycles → 88.5 MHz.
	if got := d.requiredKHz(0); got != 88_500 {
		t.Errorf("requiredKHz = %d, want 88500", got)
	}
}

func TestDeadlineOnQuantumPicksSlowestSufficientStep(t *testing.T) {
	d := NewDeadlineScheduler()
	d.Submit(100_000_000, sim.Second) // needs 100 MHz → step 103.2
	s, v := d.OnQuantum(0, 0, cpu.MaxStep, cpu.VHigh)
	if s != cpu.Step(3) {
		t.Errorf("step = %v, want 103.2MHz", s)
	}
	if v != cpu.VHigh {
		t.Errorf("voltage = %v without scaling enabled", v)
	}
}

func TestDeadlineVoltageScaling(t *testing.T) {
	d := NewDeadlineScheduler()
	d.VoltageScale = true
	d.Submit(50_000_000, sim.Second) // 59 MHz suffices → 1.23 V allowed
	s, v := d.OnQuantum(0, 0, cpu.MaxStep, cpu.VHigh)
	if s != cpu.MinStep || v != cpu.VLow {
		t.Errorf("got %v @ %v, want 59MHz @ 1.23V", s, v)
	}
	// A demanding job forces the clock and voltage back up.
	d.Submit(400_000_000, 2*sim.Second)
	s, v = d.OnQuantum(0, 0, s, v)
	if s <= cpu.MaxLowVoltageStep || v != cpu.VHigh {
		t.Errorf("got %v @ %v, want a fast step @ 1.5V", s, v)
	}
}

func TestDeadlineIdleWithNoJobs(t *testing.T) {
	d := NewDeadlineScheduler()
	s, _ := d.OnQuantum(0, 0, cpu.MaxStep, cpu.VHigh)
	if s != cpu.MinStep {
		t.Errorf("no jobs but step = %v, want the slowest", s)
	}
}

func TestDeadlineRetire(t *testing.T) {
	d := NewDeadlineScheduler()
	// One quantum fully busy at 206.4 MHz retires 2.064M cycles.
	d.Submit(3_000_000, sim.Second)
	d.OnQuantum(10*sim.Millisecond, FullUtil, cpu.MaxStep, cpu.VHigh)
	if d.Pending() != 1 {
		t.Fatalf("pending = %d", d.Pending())
	}
	if got := d.jobs[0].cycles; got != 3_000_000-2_064_000 {
		t.Errorf("remaining cycles = %d, want 936000", got)
	}
	// Another fully-busy quantum finishes it.
	d.OnQuantum(20*sim.Millisecond, FullUtil, cpu.MaxStep, cpu.VHigh)
	if d.Pending() != 0 {
		t.Errorf("job not retired: %+v", d.jobs)
	}
}

func TestDeadlineRetireSpansJobs(t *testing.T) {
	d := NewDeadlineScheduler()
	d.Submit(1_000_000, sim.Second)
	d.Submit(1_500_000, 2*sim.Second)
	// 2.064M cycles retire the whole first job and part of the second.
	d.OnQuantum(10*sim.Millisecond, FullUtil, cpu.MaxStep, cpu.VHigh)
	if d.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", d.Pending())
	}
	if got := d.jobs[0].cycles; got != 1_500_000-(2_064_000-1_000_000) {
		t.Errorf("second job remaining = %d, want 436000", got)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	d := NewDeadlineScheduler()
	id := d.Submit(1_000_000_000, 5*sim.Millisecond) // hopeless
	s, _ := d.OnQuantum(10*sim.Millisecond, 0, cpu.MinStep, cpu.VHigh)
	// The overdue job stays pending and pins the clock at the top until
	// the application completes it — the work still has to happen.
	if d.Pending() != 1 {
		t.Error("overdue job vanished; demand signal lost")
	}
	if s != cpu.MaxStep {
		t.Errorf("step = %v with an overdue job, want max", s)
	}
	if d.Expired != 1 {
		t.Errorf("Expired = %d, want 1", d.Expired)
	}
	// Expiry is counted once, not per quantum.
	d.OnQuantum(20*sim.Millisecond, 0, cpu.MaxStep, cpu.VHigh)
	if d.Expired != 1 {
		t.Errorf("Expired double-counted: %d", d.Expired)
	}
	// Completion releases the clock.
	d.Complete(id)
	s, _ = d.OnQuantum(30*sim.Millisecond, 0, cpu.MaxStep, cpu.VHigh)
	if s != cpu.MinStep {
		t.Errorf("step = %v after completion, want min", s)
	}
}

func TestDeadlinePastDuePegsMax(t *testing.T) {
	d := NewDeadlineScheduler()
	d.Submit(1000, 100)
	// now beyond due but before dropExpired is consulted.
	if got := d.requiredKHz(100); got != cpu.MaxStep.KHz() {
		t.Errorf("requiredKHz at due = %d, want max", got)
	}
}

func TestDeadlineNames(t *testing.T) {
	d := NewDeadlineScheduler()
	if d.Name() != "DEADLINE" {
		t.Errorf("Name = %q", d.Name())
	}
	d.VoltageScale = true
	if !strings.Contains(d.Name(), "voltage scaling") {
		t.Errorf("Name = %q", d.Name())
	}
	if !strings.Contains(d.String(), "pending=0") {
		t.Errorf("String = %q", d.String())
	}
}

// TestDeadlineSchedulerRunsSlowAndLate verifies the energy-scheduling
// property the paper distinguishes from an RTOS: the scheduler prefers the
// slowest feasible speed, meeting the deadline as late as possible.
func TestDeadlineSchedulerRunsSlowAndLate(t *testing.T) {
	d := NewDeadlineScheduler()
	// Work sized so 132.7 MHz exactly fits the horizon.
	cycles := int64(132_700) * 1000 // 1 s at 132.7 MHz, in cycles
	d.Submit(cycles*1000/1000, sim.Second)
	s, _ := d.OnQuantum(0, 0, cpu.MaxStep, cpu.VHigh)
	if s != cpu.Step(5) {
		t.Errorf("step = %v, want exactly 132.7MHz", s)
	}
	// Never faster than needed even when currently at max.
	if s2, _ := d.OnQuantum(0, 0, cpu.MaxStep, cpu.VHigh); s2 > cpu.Step(5) {
		t.Errorf("scheduler overshot to %v", s2)
	}
}
