package power

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

func TestDefaultModelAnchors(t *testing.T) {
	m := DefaultModel()
	// Anchor 1: processor rail at 206.4 MHz / 1.5 V is 1.0 W.
	if got := m.CoreActive(cpu.MaxStep, cpu.VHigh); math.Abs(got-AnchorCoreActiveMax) > 1e-9 {
		t.Errorf("CoreActive(max, 1.5V) = %v, want %v", got, AnchorCoreActiveMax)
	}
	// Anchor 2: dropping to 1.23 V saves 15% of processor power.
	hi := m.CoreActive(cpu.MaxStep, cpu.VHigh)
	lo := m.CoreActive(cpu.MaxStep, cpu.VLow)
	if saving := (hi - lo) / hi; math.Abs(saving-AnchorVoltageSaving) > 1e-9 {
		t.Errorf("voltage saving = %v, want %v", saving, AnchorVoltageSaving)
	}
}

func TestCoreActiveLinearInFrequency(t *testing.T) {
	m := DefaultModel()
	p59 := m.CoreActive(cpu.MinStep, cpu.VHigh)
	pMax := m.CoreActive(cpu.MaxStep, cpu.VHigh)
	wantRatio := float64(cpu.MinStep.KHz()) / float64(cpu.MaxStep.KHz())
	if got := p59 / pMax; math.Abs(got-wantRatio) > 1e-9 {
		t.Errorf("power ratio = %v, want frequency ratio %v", got, wantRatio)
	}
}

func TestNapPower(t *testing.T) {
	m := DefaultModel()
	active := m.CoreActive(cpu.MaxStep, cpu.VHigh)
	nap := m.CoreNap(cpu.MaxStep, cpu.VHigh)
	if math.Abs(nap-m.NapRatio*active) > 1e-12 {
		t.Errorf("nap = %v, want %v", nap, m.NapRatio*active)
	}
	if nap >= active {
		t.Error("nap power not below active power")
	}
}

func TestPowerByMode(t *testing.T) {
	m := DefaultModel()
	st := State{Step: cpu.MaxStep, V: cpu.VHigh}

	st.Mode = ModeActive
	active := m.Power(st)
	st.Mode = ModeStall
	stall := m.Power(st)
	st.Mode = ModeNap
	nap := m.Power(st)

	if stall != active {
		t.Errorf("stall power %v != active power %v", stall, active)
	}
	if nap >= active {
		t.Errorf("nap power %v not below active %v", nap, active)
	}
	if nap <= m.PeriphWatts {
		t.Errorf("nap system power %v should exceed the peripheral floor %v",
			nap, m.PeriphWatts)
	}
}

func TestIdleProfileModel(t *testing.T) {
	full := DefaultModel()
	idle := IdleProfileModel()
	if idle.PeriphWatts >= full.PeriphWatts {
		t.Error("idle profile should draw less peripheral power")
	}
	if idle.CoeffA != full.CoeffA || idle.CoeffB != full.CoeffB {
		t.Error("idle profile should not change core coefficients")
	}
}

func TestModeString(t *testing.T) {
	if ModeNap.String() != "nap" || ModeActive.String() != "active" || ModeStall.String() != "stall" {
		t.Error("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Errorf("unknown mode = %q", Mode(42).String())
	}
}

func activeState() State {
	return State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: ModeActive}
}

// energy integrates r's retained timeline exactly over [from, to]: the
// reference the recorder's change-points are checked against.
func energy(t testing.TB, r *Recorder, from, to sim.Time) float64 {
	t.Helper()
	points, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i, p := range points {
		segStart, segEnd := max(p.At, from), to
		if i+1 < len(points) {
			segEnd = min(points[i+1].At, to)
		}
		if segEnd > segStart {
			total += p.Watts * (segEnd - segStart).Seconds()
		}
	}
	return total
}

// powerAt returns the power r's retained timeline gives at t: that of the
// last change-point at or before t.
func powerAt(t testing.TB, r *Recorder, at sim.Time) float64 {
	t.Helper()
	points, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	w := points[0].Watts
	for _, p := range points[1:] {
		if p.At > at {
			break
		}
		w = p.Watts
	}
	return w
}

func TestRecorderEnergyExact(t *testing.T) {
	m := DefaultModel()
	r := NewRecorder(m, activeState())
	napSt := State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: ModeNap}
	// 1 s active, 1 s nap.
	r.SetState(sim.Second, napSt)
	r.Finish(2 * sim.Second)

	activeW := m.Power(activeState())
	napW := m.Power(napSt)

	e := energy(t, r, 0, 2*sim.Second)
	want := activeW + napW
	if math.Abs(e-want) > 1e-9 {
		t.Errorf("energy = %v, want %v", e, want)
	}

	// Sub-ranges.
	e = energy(t, r, 0, sim.Second)
	if math.Abs(e-activeW) > 1e-9 {
		t.Errorf("first-second energy = %v, want %v", e, activeW)
	}
	e = energy(t, r, 500*sim.Millisecond, 1500*sim.Millisecond)
	if math.Abs(e-(activeW+napW)/2) > 1e-9 {
		t.Errorf("straddling energy = %v, want %v", e, (activeW+napW)/2)
	}
}

func TestRecorderEnergyAdditive(t *testing.T) {
	m := DefaultModel()
	r := NewRecorder(m, activeState())
	st := activeState()
	for i := 1; i <= 9; i++ {
		st.Mode = Mode(i % 2) // alternate nap/active
		st.Step = cpu.Step(i % cpu.NumSteps)
		r.SetState(sim.Time(i)*100*sim.Millisecond, st)
	}
	r.Finish(sim.Second)
	whole := energy(t, r, 0, sim.Second)
	split := 0.0
	for i := sim.Time(0); i < 10; i++ {
		split += energy(t, r, i*100*sim.Millisecond, (i+1)*100*sim.Millisecond)
	}
	if math.Abs(whole-split) > 1e-9 {
		t.Errorf("energy not additive: whole %v vs split %v", whole, split)
	}
}

func TestRecorderPowerAt(t *testing.T) {
	m := DefaultModel()
	r := NewRecorder(m, activeState())
	napSt := State{Step: cpu.MinStep, V: cpu.VHigh, Mode: ModeNap}
	r.SetState(100, napSt)
	r.Finish(200)

	if p := powerAt(t, r, 50); p != m.Power(activeState()) {
		t.Errorf("power at 50 = %v, want active power", p)
	}
	if p := powerAt(t, r, 100); p != m.Power(napSt) { // boundary belongs to the new state
		t.Errorf("power at 100 = %v, want nap power", p)
	}
	if p := powerAt(t, r, 200); p != m.Power(napSt) {
		t.Errorf("power at end = %v, want nap power", p)
	}
}

func TestRecorderCollapsesNoChange(t *testing.T) {
	r := NewRecorder(DefaultModel(), activeState())
	r.SetState(100, activeState())
	r.SetState(200, activeState())
	if pts, _ := r.Points(); len(pts) != 1 {
		t.Errorf("recorder kept %d points for a constant timeline, want 1", len(pts))
	}
}

func TestRecorderSameInstantRevision(t *testing.T) {
	m := DefaultModel()
	r := NewRecorder(m, activeState())
	napSt := State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: ModeNap}
	stallSt := State{Step: cpu.MinStep, V: cpu.VHigh, Mode: ModeStall}
	r.SetState(100, napSt)
	r.SetState(100, stallSt) // same instant: later write wins
	r.Finish(200)
	if p := powerAt(t, r, 150); p != m.Power(stallSt) {
		t.Errorf("power after same-instant revision = %v, want stall power", p)
	}
	// Revising back to the original value must collapse the point.
	r2 := NewRecorder(m, activeState())
	r2.SetState(100, napSt)
	r2.SetState(100, activeState())
	if pts, _ := r2.Points(); len(pts) != 1 {
		t.Errorf("same-instant revert kept %d points, want 1", len(pts))
	}
}

func TestRecorderMisuseErrors(t *testing.T) {
	t.Run("out of order", func(t *testing.T) {
		r := NewRecorder(DefaultModel(), activeState())
		if err := r.SetState(100, State{Mode: ModeNap, V: cpu.VHigh}); err != nil {
			t.Fatal(err)
		}
		if err := r.SetState(50, activeState()); !errors.Is(err, ErrOrder) {
			t.Errorf("out-of-order SetState err = %v, want ErrOrder", err)
		}
	})
	t.Run("after finish", func(t *testing.T) {
		r := NewRecorder(DefaultModel(), activeState())
		if err := r.Finish(100); err != nil {
			t.Fatal(err)
		}
		if err := r.SetState(150, activeState()); !errors.Is(err, ErrClosed) {
			t.Errorf("SetState after Finish err = %v, want ErrClosed", err)
		}
	})
	t.Run("finish before last", func(t *testing.T) {
		r := NewRecorder(DefaultModel(), activeState())
		if err := r.SetState(100, State{Mode: ModeNap, V: cpu.VHigh}); err != nil {
			t.Fatal(err)
		}
		if err := r.Finish(50); !errors.Is(err, ErrOrder) {
			t.Errorf("early Finish err = %v, want ErrOrder", err)
		}
	})
}

// Property: energy over any split point equals the sum of the parts.
func TestRecorderAdditivityProperty(t *testing.T) {
	f := func(changes []uint16, split uint16) bool {
		m := DefaultModel()
		r := NewRecorder(m, activeState())
		now := sim.Time(0)
		st := activeState()
		for i, c := range changes {
			now += sim.Time(c%1000) + 1
			st.Mode = Mode(i % 2)
			st.Step = cpu.Step(i % cpu.NumSteps)
			r.SetState(now, st)
		}
		end := now + 1000
		r.Finish(end)
		mid := sim.Time(split) % (end + 1)
		whole := energy(t, r, 0, end)
		a := energy(t, r, 0, mid)
		b := energy(t, r, mid, end)
		return math.Abs(whole-(a+b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIdealDVSModelVoltages(t *testing.T) {
	m := IdealDVSModel()
	if len(m.DVSVolts) != cpu.NumSteps {
		t.Fatalf("%d voltages", len(m.DVSVolts))
	}
	if math.Abs(m.DVSVolts[cpu.MinStep]-0.8) > 1e-12 {
		t.Errorf("59MHz voltage = %v, want 0.8", m.DVSVolts[cpu.MinStep])
	}
	if math.Abs(m.DVSVolts[cpu.MaxStep]-1.5) > 1e-12 {
		t.Errorf("206.4MHz voltage = %v, want 1.5", m.DVSVolts[cpu.MaxStep])
	}
	for s := cpu.MinStep + 1; s <= cpu.MaxStep; s++ {
		if m.DVSVolts[s] <= m.DVSVolts[s-1] {
			t.Errorf("voltage not increasing at %v", s)
		}
	}
}

func TestIdealDVSEnergyPerCycleFalls(t *testing.T) {
	// On the fixed-voltage Itsy, active power per Hz is constant; on the
	// DVS core it falls with frequency, so energy per cycle shrinks.
	itsy := DefaultModel()
	dvs := IdealDVSModel()
	perCycle := func(m Model, s cpu.Step) float64 {
		return m.CoreActive(s, cpu.VHigh) / (float64(s.KHz()) * 1000)
	}
	// Itsy: identical per-cycle energy at every step.
	if math.Abs(perCycle(itsy, cpu.MinStep)-perCycle(itsy, cpu.MaxStep)) > 1e-15 {
		t.Error("fixed-voltage per-cycle energy is not constant")
	}
	// DVS: strictly decreasing per-cycle energy at lower steps.
	for s := cpu.MinStep; s < cpu.MaxStep; s++ {
		if perCycle(dvs, s) >= perCycle(dvs, s+1) {
			t.Errorf("DVS per-cycle energy not decreasing at %v", s)
		}
	}
	// At the top step the two models agree (both 1.5 V).
	if math.Abs(perCycle(dvs, cpu.MaxStep)-perCycle(itsy, cpu.MaxStep)) > 1e-15 {
		t.Error("models disagree at the top step")
	}
}

func TestDVSModelIgnoresVoltageEnum(t *testing.T) {
	m := IdealDVSModel()
	hi := m.CoreActive(cpu.Step(5), cpu.VHigh)
	lo := m.CoreActive(cpu.Step(5), cpu.VLow)
	if hi != lo {
		t.Error("DVS model should override the discrete voltage enum")
	}
}

// Property: active power is strictly increasing in clock step for both
// models at fixed voltage.
func TestPowerMonotoneInStepProperty(t *testing.T) {
	for _, m := range []Model{DefaultModel(), IdealDVSModel()} {
		for s := cpu.MinStep; s < cpu.MaxStep; s++ {
			if m.CoreActive(s, cpu.VHigh) >= m.CoreActive(s+1, cpu.VHigh) {
				t.Errorf("power not increasing at %v", s)
			}
		}
	}
}

// TestStreamedRecorderRefusesQueries pins the streaming recorder's
// structured errors: a streamed timeline cannot be queried after the fact,
// and a closed or already-flushed recorder cannot stream again.
func TestStreamedRecorderRefusesQueries(t *testing.T) {
	var segs int
	r := NewRecorder(DefaultModel(), activeState())
	if err := r.Stream(nil); err == nil {
		t.Error("nil sink accepted")
	}
	if err := r.Stream(func(from, to sim.Time, w float64) { segs++ }); err != nil {
		t.Fatal(err)
	}
	r.SetState(100, State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: ModeNap})
	if err := r.Finish(200); err != nil {
		t.Fatal(err)
	}
	if segs != 2 {
		t.Errorf("sink saw %d segments, want 2", segs)
	}
	if _, err := r.Points(); !errors.Is(err, ErrStreamed) {
		t.Errorf("Points err = %v, want ErrStreamed", err)
	}
	if err := r.Finish(200); !errors.Is(err, ErrClosed) {
		t.Errorf("second Finish of a streamed timeline err = %v, want ErrClosed", err)
	}
	if err := r.Stream(func(sim.Time, sim.Time, float64) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Stream after Finish err = %v, want ErrClosed", err)
	}
}
