package cpu

import (
	"testing"
	"testing/quick"

	"clocksched/internal/sim"
)

func TestBurstCycles(t *testing.T) {
	b := Burst{Core: 1000, Mem: 10, Cache: 2}
	// At 206.4 MHz: 1000 + 10*20 + 2*69 = 1338 cycles.
	if got := b.Cycles(MaxStep); got != 1338 {
		t.Errorf("Cycles(max) = %d, want 1338", got)
	}
	// At 59 MHz: 1000 + 10*11 + 2*39 = 1188 cycles.
	if got := b.Cycles(MinStep); got != 1188 {
		t.Errorf("Cycles(min) = %d, want 1188", got)
	}
}

func TestBurstDurationRoundsUp(t *testing.T) {
	// 59 cycles at 59 MHz is exactly 1 µs; 60 cycles must round to 2 µs.
	if got := (Burst{Core: 59}).Duration(MinStep); got != 1 {
		t.Errorf("59 cycles at 59MHz = %v, want 1µs", got)
	}
	if got := (Burst{Core: 60}).Duration(MinStep); got != 2 {
		t.Errorf("60 cycles at 59MHz = %v, want 2µs", got)
	}
	if got := (Burst{}).Duration(MinStep); got != 0 {
		t.Errorf("empty burst duration = %v, want 0", got)
	}
}

func TestBurstSublinearSpeedup(t *testing.T) {
	// A memory-heavy burst speeds up less than the frequency ratio —
	// the Figure 9 effect.
	b := Burst{Core: 4_000_000, Mem: 143_000, Cache: 40_000}
	slow := b.Duration(Step(5))                                  // 132.7 MHz
	fast := b.Duration(MaxStep)                                  // 206.4 MHz
	freqRatio := float64(MaxStep.KHz()) / float64(Step(5).KHz()) // 1.555
	timeRatio := float64(slow) / float64(fast)
	if timeRatio >= freqRatio {
		t.Fatalf("time ratio %.3f not sublinear vs freq ratio %.3f", timeRatio, freqRatio)
	}
	if timeRatio < 1.05 {
		t.Fatalf("time ratio %.3f suspiciously flat", timeRatio)
	}
}

func TestBurstPlateau(t *testing.T) {
	// Between 162.2 and 176.9 MHz the memory-cost jump can make a
	// memory-bound burst take *longer* per unit of frequency gained:
	// busy time barely improves.
	b := Burst{Core: 4_000_000, Mem: 143_000, Cache: 40_000}
	d7 := b.Duration(Step(7)) // 162.2 MHz
	d8 := b.Duration(Step(8)) // 176.9 MHz
	improvement := float64(d7-d8) / float64(d7)
	if improvement > 0.02 {
		t.Fatalf("162.2→176.9 MHz improved duration by %.1f%%, want ≈0 (plateau)",
			improvement*100)
	}
}

func TestBurstScale(t *testing.T) {
	b := Burst{Core: 100, Mem: 10, Cache: 4}
	half := b.Scale(0.5)
	if half != (Burst{Core: 50, Mem: 5, Cache: 2}) {
		t.Errorf("Scale(0.5) = %v", half)
	}
	if z := b.Scale(-1); !z.Zero() {
		t.Errorf("Scale(-1) = %v, want zero", z)
	}
	if b.Scale(1) != b {
		t.Errorf("Scale(1) changed the burst")
	}
}

func TestBurstAdd(t *testing.T) {
	a := Burst{Core: 1, Mem: 2, Cache: 3}
	b := Burst{Core: 10, Mem: 20, Cache: 30}
	if got := a.Add(b); got != (Burst{Core: 11, Mem: 22, Cache: 33}) {
		t.Errorf("Add = %v", got)
	}
}

func TestExecutionLifecycle(t *testing.T) {
	b := Burst{Core: 206400 * 10} // 10 ms at max step
	e := StartExecution(b)
	if e.Done() {
		t.Fatal("fresh execution reports Done")
	}
	if got := e.TimeToFinish(MaxStep); got != 10000 {
		t.Fatalf("TimeToFinish = %v, want 10000", got)
	}
	if e.Advance(4000, MaxStep) {
		t.Fatal("Advance(4ms) of a 10ms burst reported finished")
	}
	if got := e.TimeToFinish(MaxStep); got < 5999 || got > 6001 {
		t.Fatalf("after 4ms, TimeToFinish = %v, want ≈6000", got)
	}
	if !e.Advance(6001, MaxStep) {
		t.Fatal("burst not finished after full duration")
	}
	if !e.Done() {
		t.Fatal("Done() false after completion")
	}
	if e.TimeToFinish(MaxStep) != 0 {
		t.Fatal("finished execution still reports time to finish")
	}
	if !e.Advance(100, MaxStep) {
		t.Fatal("advancing a finished execution should report true")
	}
}

func TestExecutionAcrossSpeedChange(t *testing.T) {
	// Run half the burst at max speed, the rest at min: remaining work
	// converts consistently.
	b := Burst{Core: 206400 * 10} // 10 ms at max, 34.98 ms at 59 MHz
	e := StartExecution(b)
	e.Advance(5000, MaxStep) // half done
	slowFull := b.Duration(MinStep)
	want := sim.Duration(float64(slowFull) * 0.5)
	got := e.TimeToFinish(MinStep)
	if got < want-2 || got > want+2 {
		t.Fatalf("TimeToFinish at 59MHz after half at 206MHz = %v, want ≈%v", got, want)
	}
}

func TestExecutionZeroBurst(t *testing.T) {
	e := StartExecution(Burst{})
	if !e.Done() {
		t.Fatal("zero burst not immediately done")
	}
	if e.TimeToFinish(MaxStep) != 0 {
		t.Fatal("zero burst has nonzero time to finish")
	}
}

func TestExecutionResidueCollapses(t *testing.T) {
	// Advancing in many small unequal slices must terminate exactly, not
	// leave an un-finishable sliver.
	b := Burst{Core: 206400} // 1 ms at max step
	e := StartExecution(b)
	steps := 0
	for !e.Done() {
		e.Advance(7, MaxStep)
		steps++
		if steps > 1000 {
			t.Fatal("execution never finished: floating-point sliver")
		}
	}
}

func TestExecutionProperty(t *testing.T) {
	// Property: total time spent advancing to completion at a fixed step
	// is within one slice of the burst's duration at that step.
	f := func(core uint32, stepRaw uint8, slice uint16) bool {
		s := Step(int(stepRaw) % NumSteps)
		b := Burst{Core: int64(core%50_000_000) + 1}
		sl := sim.Duration(slice%5000) + 1
		e := StartExecution(b)
		var total sim.Duration
		for !e.Done() {
			e.Advance(sl, s)
			total += sl
		}
		want := b.Duration(s)
		return total >= want-sl && total <= want+sl+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBurstString(t *testing.T) {
	got := Burst{Core: 1, Mem: 2, Cache: 3}.String()
	if got != "burst{core=1 mem=2 cache=3}" {
		t.Errorf("String() = %q", got)
	}
}
