package expt

import (
	"context"
	"math"
	"strings"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

func TestRunValidation(t *testing.T) {
	if _, err := RunContext(context.Background(), RunSpec{Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunProducesEnergy(t *testing.T) {
	out, err := RunContext(context.Background(), RunSpec{Workload: "rect", Duration: 5 * sim.Second, InitialStep: cpu.MaxStep})
	if err != nil {
		t.Fatal(err)
	}
	if out.DAQ.EnergyJ <= 0 || out.DAQ.AvgPowerW <= 0 {
		t.Errorf("energy %v, power %v", out.DAQ.EnergyJ, out.DAQ.AvgPowerW)
	}
	if out.Kernel.MeanUtil() < 0.85 || out.Kernel.MeanUtil() > 0.95 {
		t.Errorf("rect wave utilization = %v, want ≈0.9", out.Kernel.MeanUtil())
	}
	// Energy equals average power times duration.
	if rel := math.Abs(out.DAQ.EnergyJ-out.DAQ.AvgPowerW*5) / out.DAQ.EnergyJ; rel > 0.001 {
		t.Errorf("energy/power inconsistency: %v", rel)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 20 {
		t.Fatalf("%d rows", len(rows))
	}
	want := []int{
		1000, 1900, 2710, 3439, 4095, 4685, 5217, 5695, 6125, 6513,
		6861, 7175, 7458, 7712, 7941, 7146, 6432, 5789, 5210, 4689,
	}
	for i, r := range rows {
		if r.Weighted != want[i] {
			t.Errorf("row %d weighted = %d, want %d", i, r.Weighted, want[i])
		}
		if r.TimeMs != (i+1)*10 {
			t.Errorf("row %d time = %d", i, r.TimeMs)
		}
		if r.Active != (i < 15) {
			t.Errorf("row %d active = %v", i, r.Active)
		}
	}
	// Five scale-ups (t=120..160 ms), one scale-down (t=200 ms).
	var ups, downs []int
	for _, r := range rows {
		switch r.Note {
		case "Scale up":
			ups = append(ups, r.TimeMs)
		case "Scale down":
			downs = append(downs, r.TimeMs)
		}
	}
	if len(ups) != 5 || ups[0] != 120 || ups[4] != 160 {
		t.Errorf("scale-ups at %v", ups)
	}
	if len(downs) != 1 || downs[0] != 200 {
		t.Errorf("scale-downs at %v", downs)
	}
	text := RenderTable1(rows)
	if !strings.Contains(text, "7175") || !strings.Contains(text, "Scale up") {
		t.Error("render missing content")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	rows := Table3()
	wantMem := []int64{11, 11, 11, 11, 13, 14, 14, 15, 18, 19, 20}
	wantCache := []int64{39, 39, 39, 39, 41, 42, 49, 50, 60, 61, 69}
	if len(rows) != cpu.NumSteps {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.MemCycles != wantMem[i] {
			t.Errorf("step %v mem cycles = %d, want %d", r.Step, r.MemCycles, wantMem[i])
		}
		if r.CacheCycles != wantCache[i] {
			t.Errorf("step %v cache cycles = %d, want %d", r.Step, r.CacheCycles, wantCache[i])
		}
	}
	text := RenderTable3(rows)
	if !strings.Contains(text, "206.4") || !strings.Contains(text, "69") {
		t.Error("render missing content")
	}
}

func TestFigure5Shapes(t *testing.T) {
	res := Figure5()
	if len(res.GoingIdle) != 5 || len(res.SpeedingUp) != 5 {
		t.Fatalf("row counts: %d, %d", len(res.GoingIdle), len(res.SpeedingUp))
	}
	// Going idle: 206.4 → 162.2 → 103.2 → 59 within four decisions.
	gi := res.GoingIdle
	wantSteps := []cpu.Step{cpu.MaxStep, cpu.Step(7), cpu.Step(3), cpu.MinStep, cpu.MinStep}
	for i, want := range wantSteps {
		if gi[i].Speed != want {
			t.Errorf("going-idle interval %d speed = %v, want %v", i, gi[i].Speed, want)
		}
	}
	// Speeding up: the policy never escapes 59 MHz — the pathology.
	for i, r := range res.SpeedingUp {
		if r.Speed != cpu.MinStep {
			t.Errorf("speeding-up interval %d speed = %v, want 59MHz", i, r.Speed)
		}
	}
	// The figure's box sequence: averages 14.75, 29.5, 44.25 MHz as busy
	// quanta at 59 MHz fill the window.
	for i, want := range []float64{0, 14.75, 29.5, 44.25, 59} {
		if math.Abs(res.SpeedingUp[i].AvgMHz-want) > 0.01 {
			t.Errorf("speeding-up interval %d average = %v MHz, want %v",
				i, res.SpeedingUp[i].AvgMHz, want)
		}
	}
	if !strings.Contains(res.Render(), "Going to idle") {
		t.Error("render missing scenario")
	}
}

func TestFigure6Shape(t *testing.T) {
	s, err := Figure6(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 31 { // ω = 0, 0.5, …, 15
		t.Fatalf("%d points", len(s.Points))
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Y > s.Points[i-1].Y {
			t.Fatalf("transform increased at ω=%v", s.Points[i].X)
		}
		if s.Points[i].Y <= 0 {
			t.Fatalf("transform hit zero at ω=%v: attenuates, never eliminates", s.Points[i].X)
		}
	}
	if _, err := Figure6(0); err == nil {
		t.Error("AVG_0 accepted")
	}
}

func TestFigure7Oscillates(t *testing.T) {
	s, osc, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 800 {
		t.Fatalf("%d points", len(s.Points))
	}
	if osc.PeakToPeak < 0.15 {
		t.Errorf("steady-state oscillation %v too small; Figure 7 shows a wide swing", osc.PeakToPeak)
	}
	if osc.Mean < 0.85 || osc.Max > 1.0 {
		t.Errorf("oscillation band [%v, %v] mean %v looks wrong", osc.Min, osc.Max, osc.Mean)
	}
}

func TestBatteryLifetimeRatio(t *testing.T) {
	res, err := BatteryLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != cpu.NumSteps {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The fit must reproduce the paper's observation exactly.
	if math.Abs(res.Rows[0].Lifetime.Seconds()-18*3600) > 5 {
		t.Errorf("59MHz lifetime = %v, want 18h", res.Rows[0].Lifetime)
	}
	if math.Abs(res.Rows[10].Lifetime.Seconds()-2*3600) > 5 {
		t.Errorf("206.4MHz lifetime = %v, want 2h", res.Rows[10].Lifetime)
	}
	if math.Abs(res.Ratio-9) > 0.05 {
		t.Errorf("lifetime ratio = %v, want 9", res.Ratio)
	}
	// Lifetime decreases monotonically with clock speed.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Lifetime >= res.Rows[i-1].Lifetime {
			t.Errorf("lifetime not decreasing at %v", res.Rows[i].Step)
		}
	}
	if !strings.Contains(res.Render(), "18.0 h") {
		t.Error("render missing 18h row")
	}
}

func TestTransitionCost(t *testing.T) {
	res, err := TransitionCost()
	if err != nil {
		t.Fatal(err)
	}
	if res.ClockChangeStall != cpu.ClockChangeStall {
		t.Errorf("measured stall = %v, want %dµs", res.ClockChangeStall, cpu.ClockChangeStall)
	}
	// "between 11,200 clock periods at 59MHz and 40,000 at 200MHz"
	if res.StallCyclesAtMin != 11800 { // 200µs × 59 MHz
		t.Errorf("stall periods at 59MHz = %d", res.StallCyclesAtMin)
	}
	if res.StallCyclesAtMax != 41280 { // 200µs × 206.4 MHz
		t.Errorf("stall periods at 206.4MHz = %d", res.StallCyclesAtMax)
	}
	if res.OverheadFraction > 0.021 {
		t.Errorf("overhead fraction = %v, want ≈2%%", res.OverheadFraction)
	}
	if !strings.Contains(res.Render(), "200µs") {
		t.Error("render missing stall time")
	}
}

func TestSchedulerOverhead(t *testing.T) {
	res, err := SchedulerOverhead()
	if err != nil {
		t.Fatal(err)
	}
	// ~6 µs per 10 ms interval, 0.06%.
	if res.PerQuantum < 5 || res.PerQuantum > 7 {
		t.Errorf("per-quantum overhead = %v, want ≈6µs", res.PerQuantum)
	}
	if math.Abs(res.Fraction-0.0006) > 0.0002 {
		t.Errorf("overhead fraction = %v, want ≈0.0006", res.Fraction)
	}
}

func TestSeriesRender(t *testing.T) {
	s := Series{Name: "test", XLabel: "x", YLabel: "y",
		Points: []Point{{1, 2}, {3, 4}}}
	text := s.Render()
	if !strings.Contains(text, "# test") || !strings.Contains(text, "3\t4") {
		t.Errorf("render = %q", text)
	}
	if (Series{}).Sparkline(10) != "" {
		t.Error("empty sparkline should be empty")
	}
}
