package daq

import (
	"math"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/fault"
	"clocksched/internal/power"
	"clocksched/internal/sim"
)

func constantRecorder(watts float64, end sim.Time) *power.Recorder {
	r := power.NewRecorder(power.DefaultModel(),
		power.State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: power.ModeActive})
	r.SetWatts(0, watts)
	r.Finish(end)
	return r
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.SampleInterval != 200 {
		t.Errorf("sample interval = %v, want 200µs (5 kHz)", c.SampleInterval)
	}
	if c.Bits != 16 {
		t.Errorf("bits = %d, want 16", c.Bits)
	}
	if c.SupplyVolts != 3.1 || c.ShuntOhms != 0.02 {
		t.Errorf("supply/shunt = %v/%v, want 3.1V/0.02Ω", c.SupplyVolts, c.ShuntOhms)
	}
}

func TestSampleCountAndEnergy(t *testing.T) {
	rec := constantRecorder(2.0, sim.Second)
	cap, err := Sample(rec, 0, sim.Second, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cap.Samples) != 5000 {
		t.Fatalf("captured %d samples over 1s, want 5000", len(cap.Samples))
	}
	// Constant 2 W for 1 s = 2 J, modulo one quantization LSB.
	if got := cap.Energy(); math.Abs(got-2.0) > 1e-3 {
		t.Errorf("energy = %v, want 2.0", got)
	}
	if got := cap.AveragePower(); math.Abs(got-2.0) > 1e-3 {
		t.Errorf("avg power = %v, want 2.0", got)
	}
	if got := cap.Duration(); got != sim.Second {
		t.Errorf("duration = %v, want 1s", got)
	}
}

func TestQuantization(t *testing.T) {
	c := DefaultConfig()
	lsb := c.FullScaleWatts / 65535
	// A value between code centres snaps to the grid.
	in := 3.0*lsb + 0.4*lsb
	got := c.quantize(in)
	if math.Abs(got-3*lsb) > 1e-12 {
		t.Errorf("quantize(%v) = %v, want %v", in, got, 3*lsb)
	}
	if got := c.quantize(-1); got != 0 {
		t.Errorf("quantize(-1) = %v, want 0 (clip)", got)
	}
	if got := c.quantize(99); got != c.FullScaleWatts {
		t.Errorf("quantize(99) = %v, want full scale (clip)", got)
	}
	// Quantization error is bounded by half an LSB inside the range.
	for _, w := range []float64{0.1, 1.0, 1.43, 5.5, 7.99} {
		if err := math.Abs(c.quantize(w) - w); err > lsb/2+1e-12 {
			t.Errorf("quantize(%v) error %v exceeds LSB/2", w, err)
		}
	}
}

func TestSampleStepTimeline(t *testing.T) {
	// 1 W for the first half, 3 W for the second: sampled energy ≈ 2 J,
	// and the samples visibly change level.
	r := power.NewRecorder(power.DefaultModel(),
		power.State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: power.ModeActive})
	r.SetWatts(0, 1.0)
	r.SetWatts(500*sim.Millisecond, 3.0)
	r.Finish(sim.Second)
	cap, err := Sample(r, 0, sim.Second, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cap.Samples[0]-1.0) > 1e-3 {
		t.Errorf("first sample = %v, want 1.0", cap.Samples[0])
	}
	last := cap.Samples[len(cap.Samples)-1]
	if math.Abs(last-3.0) > 1e-3 {
		t.Errorf("last sample = %v, want 3.0", last)
	}
	if got := cap.Energy(); math.Abs(got-2.0) > 1e-3 {
		t.Errorf("energy = %v, want 2.0", got)
	}
	if got := cap.PeakPower(); math.Abs(got-3.0) > 1e-3 {
		t.Errorf("peak = %v, want 3.0", got)
	}
}

func TestSampleWindowed(t *testing.T) {
	// Triggering mid-run captures only the window, like the GPIO trigger.
	rec := constantRecorder(1.0, sim.Second)
	cap, err := Sample(rec, 250*sim.Millisecond, 750*sim.Millisecond, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cap.Samples) != 2500 {
		t.Errorf("windowed capture has %d samples, want 2500", len(cap.Samples))
	}
	if cap.Start != 250*sim.Millisecond {
		t.Errorf("capture start = %v", cap.Start)
	}
}

func TestSampleErrors(t *testing.T) {
	rec := constantRecorder(1.0, sim.Second)
	cfg := DefaultConfig()
	cases := []struct {
		name       string
		start, end sim.Time
		cfg        Config
	}{
		{"negative start", -1, sim.Second, cfg},
		{"empty window", 100, 100, cfg},
		{"inverted window", 200, 100, cfg},
		{"beyond timeline", 0, 2 * sim.Second, cfg},
	}
	for _, c := range cases {
		if _, err := Sample(rec, c.start, c.end, c.cfg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	bad := cfg
	bad.SampleInterval = 0
	if _, err := Sample(rec, 0, sim.Second, bad); err == nil {
		t.Error("zero sample interval: no error")
	}
	bad = cfg
	bad.Bits = 0
	if _, err := Sample(rec, 0, sim.Second, bad); err == nil {
		t.Error("zero bits: no error")
	}
	bad = cfg
	bad.FullScaleWatts = 0
	if _, err := Sample(rec, 0, sim.Second, bad); err == nil {
		t.Error("zero full scale: no error")
	}
}

// TestSamplePartialWindow is the regression test for the truncation bug:
// Sample used to floor the window to whole 200 µs intervals, silently
// dropping the trailing partial interval's energy. A window not divisible by
// the sample interval must now be covered in full.
func TestSamplePartialWindow(t *testing.T) {
	rec := constantRecorder(2.0, 2*sim.Second)
	window := sim.Second + 300*sim.Microsecond // 1.0003 s: 5001 whole intervals + 100 µs
	cap, err := Sample(rec, 0, sim.Time(window), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cap.Samples) != 5002 {
		t.Fatalf("captured %d samples over %v, want 5002 (ceil)", len(cap.Samples), window)
	}
	if got := cap.Duration(); got != window {
		t.Errorf("duration = %v, want %v", got, window)
	}
	// Constant 2 W over 1.0003 s is 2.0006 J. The old floor-truncating code
	// reported 2.0002 J (5001 samples × 200 µs), losing the partial interval.
	if got := cap.Energy(); math.Abs(got-2.0006) > 1e-4 {
		t.Errorf("energy = %v, want 2.0006 (partial interval covered)", got)
	}

	// A window shorter than one sample interval is likewise covered by a
	// single partial-interval reading instead of erroring.
	small, err := Sample(rec, 0, 100, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Samples) != 1 {
		t.Fatalf("sub-interval window captured %d samples, want 1", len(small.Samples))
	}
	if got, want := small.Energy(), 2.0*(100*sim.Microsecond).Seconds(); math.Abs(got-want) > 1e-7 {
		t.Errorf("sub-interval energy = %v, want %v", got, want)
	}

	// A divisible window is bit-identical to the pre-fix behaviour.
	exact, err := Sample(rec, 0, sim.Second, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Samples) != 5000 || math.Abs(exact.Energy()-2.0) > 1e-3 {
		t.Errorf("divisible window: %d samples, %v J", len(exact.Samples), exact.Energy())
	}
}

func TestMeanCurrent(t *testing.T) {
	rec := constantRecorder(3.1, sim.Second) // 3.1 W at 3.1 V → 1 A
	cap, err := Sample(rec, 0, sim.Second, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := cap.MeanCurrent(); math.Abs(got-1.0) > 1e-3 {
		t.Errorf("mean current = %v, want 1.0 A", got)
	}
	capBad := cap
	capBad.Config.SupplyVolts = 0
	if capBad.MeanCurrent() != 0 {
		t.Error("zero supply volts should yield zero current, not Inf")
	}
}

func TestEmptyCaptureStats(t *testing.T) {
	var c Capture
	c.Config = DefaultConfig()
	if c.AveragePower() != 0 || c.PeakPower() != 0 || c.Energy() != 0 {
		t.Error("empty capture should report zeros")
	}
}

func TestSampleDropsHoldPreviousReading(t *testing.T) {
	// A ramp timeline makes drops visible: every held sample repeats its
	// predecessor exactly, which a fresh conversion of the ramp never does.
	r := power.NewRecorder(power.DefaultModel(),
		power.State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: power.ModeActive})
	for ms := 0; ms < 1000; ms++ {
		r.SetWatts(sim.Time(ms)*sim.Millisecond, 1.0+0.005*float64(ms))
	}
	r.Finish(sim.Second)

	cfg := DefaultConfig()
	in, err := fault.NewInjector(&fault.Plan{SampleDropProb: 0.2}, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = in
	cap, err := Sample(r, 0, sim.Second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drops := in.Counts().SamplesDropped
	if drops == 0 {
		t.Fatal("20% drop rate injected nothing in 5000 samples")
	}
	if len(cap.Samples) != 5000 {
		t.Fatalf("drops changed sample count: %d", len(cap.Samples))
	}
	// Count samples identical to their predecessor; with 5 conversions per
	// 1 ms ramp segment, 4/5 of clean adjacent pairs also repeat, so only
	// check held readings never exceed the running maximum of the ramp.
	for i := 1; i < len(cap.Samples); i++ {
		if cap.Samples[i] < cap.Samples[i-1]-1e-9 {
			t.Fatalf("sample %d decreased on a rising ramp: %v < %v",
				i, cap.Samples[i], cap.Samples[i-1])
		}
	}
}

func TestSampleGlitchesStayClipped(t *testing.T) {
	rec := constantRecorder(7.9, sim.Second) // near full scale
	cfg := DefaultConfig()
	in, err := fault.NewInjector(&fault.Plan{SampleGlitchProb: 1, SampleGlitchWatts: 1.0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = in
	cap, err := Sample(rec, 0, sim.Second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if in.Counts().SamplesGlitched != len(cap.Samples) {
		t.Errorf("probability-1 glitches hit %d of %d samples",
			in.Counts().SamplesGlitched, len(cap.Samples))
	}
	saw := false
	for i, s := range cap.Samples {
		if s < 0 || s > cfg.FullScaleWatts {
			t.Fatalf("sample %d = %v escaped ADC range", i, s)
		}
		if math.Abs(s-7.9) > 0.01 {
			saw = true
		}
	}
	if !saw {
		t.Error("±1 W glitches left every reading within 0.01 W of truth")
	}
}

func TestSampleFaultsDeterministic(t *testing.T) {
	rec := constantRecorder(2.0, sim.Second)
	run := func() []float64 {
		cfg := DefaultConfig()
		in, err := fault.NewInjector(&fault.Plan{SampleDropProb: 0.1, SampleGlitchProb: 0.1}, 21)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = in
		cap, err := Sample(rec, 0, sim.Second, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cap.Samples
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEnergyMatchesExactIntegralClosely(t *testing.T) {
	// Sampled energy of a many-segment timeline tracks the exact integral
	// to within sampling + quantization error.
	m := power.DefaultModel()
	r := power.NewRecorder(m, power.State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: power.ModeActive})
	st := power.State{Step: cpu.MaxStep, V: cpu.VHigh}
	rng := sim.NewRNG(5)
	now := sim.Time(0)
	for now < 10*sim.Second {
		now += rng.Duration(sim.Millisecond, 40*sim.Millisecond)
		st.Mode = power.Mode(rng.Int63n(2))
		st.Step = cpu.Step(rng.Int63n(cpu.NumSteps))
		if now < 10*sim.Second {
			r.SetState(now, st)
		}
	}
	r.Finish(10 * sim.Second)
	points, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	exact := 0.0
	for i, p := range points {
		end := r.End()
		if i+1 < len(points) {
			end = points[i+1].At
		}
		exact += p.Watts * (end - p.At).Seconds()
	}
	cap, err := Sample(r, 0, 10*sim.Second, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(cap.Energy()-exact) / exact; rel > 0.01 {
		t.Errorf("sampled energy off by %.2f%% from exact integral", rel*100)
	}
}
