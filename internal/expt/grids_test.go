// The tests of the sweep-shaped experiments: each runs its experiment's
// cells through grids.Run, then its fold, and checks the rows against the
// paper. They live in expt's external test package, beside the row types
// and renderers they check, because internal/grids imports expt.
package expt_test

import (
	"math"
	"strings"
	"testing"

	"clocksched"
	"clocksched/internal/analysis"
	"clocksched/internal/cpu"
	"clocksched/internal/expt"
	"clocksched/internal/grids"
)

// sweep runs cfg serially with seed 1 and no cache.
func sweep(t *testing.T, cfg clocksched.SweepConfig) *clocksched.SweepResult {
	t.Helper()
	res, err := grids.Run(expt.DefaultEnv(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTable2Shape verifies the paper's headline result structure: the
// energy ordering across the five configurations, zero missed deadlines
// everywhere, the small-but-real saving of the best heuristic policy, and
// tight confidence intervals.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 2 runs 50 one-minute simulations")
	}
	cfg, err := clocksched.Table2Config(1, expt.Table2Runs)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := grids.FoldTable2(sweep(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	const (
		c206   = 0 // constant 206.4 MHz, 1.5 V
		c132   = 1 // constant 132.7 MHz, 1.5 V
		c132lv = 2 // constant 132.7 MHz, 1.23 V
		best   = 3 // PAST peg-peg 98/93
		bestVS = 4 // same + voltage scaling
	)

	// No configuration misses deadlines: all are usable, per the paper.
	for _, r := range rows {
		if r.Misses != 0 {
			t.Errorf("%s missed %d deadlines", r.Algorithm, r.Misses)
		}
	}

	// Energy ordering: 132.7 beats 206.4; dropping the voltage beats both.
	if !(rows[c132].Energy.Mean < rows[c206].Energy.Mean) {
		t.Errorf("constant 132.7 (%v) not below constant 206.4 (%v)",
			rows[c132].Energy, rows[c206].Energy)
	}
	if !(rows[c132lv].Energy.Mean < rows[c132].Energy.Mean) {
		t.Errorf("1.23V (%v) not below 1.5V (%v)", rows[c132lv].Energy, rows[c132].Energy)
	}

	// The best heuristic saves a small but significant amount vs constant
	// full speed — its CI upper bound sits below the 206.4 MHz CI lower
	// bound, but it cannot touch the constant-132.7 ideal.
	if !(rows[best].Energy.High < rows[c206].Energy.Low) {
		t.Errorf("best policy (%v) not significantly below constant 206.4 (%v)",
			rows[best].Energy, rows[c206].Energy)
	}
	if !(rows[best].Energy.Mean > rows[c132].Energy.Mean) {
		t.Errorf("best policy (%v) implausibly beats the 132.7 MHz ideal (%v)",
			rows[best].Energy, rows[c132].Energy)
	}

	// Voltage scaling on top of peg-peg yields no meaningful change —
	// the policy spends little time below 162.2 MHz, so the means sit
	// within 1% of each other (the paper found no statistical decrease).
	if diff := math.Abs(rows[bestVS].Energy.Mean-rows[best].Energy.Mean) /
		rows[best].Energy.Mean; diff > 0.01 {
		t.Errorf("voltage scaling changed energy by %.2f%%: %v vs %v",
			diff*100, rows[bestVS].Energy, rows[best].Energy)
	}

	// The paper: "the 95% confidence interval of the energy [was] less
	// than 0.7% of the mean energy."
	for _, r := range rows {
		if rel := r.Energy.RelativeWidth(); rel > 0.007 {
			t.Errorf("%s CI half-width %.3f%% of mean, want < 0.7%%", r.Algorithm, rel*100)
		}
	}

	// The best policy changes clock settings frequently.
	if rows[best].SpeedChanges < 100 {
		t.Errorf("best policy made only %.0f clock changes per minute", rows[best].SpeedChanges)
	}
	// Constant policies never change the clock.
	for _, i := range []int{c206, c132, c132lv} {
		if rows[i].SpeedChanges != 0 {
			t.Errorf("%s changed the clock %.0f times", rows[i].Algorithm, rows[i].SpeedChanges)
		}
	}

	text := expt.RenderTable2(rows)
	if !strings.Contains(text, "206.4") || !strings.Contains(text, "Voltage Scaling") {
		t.Error("render missing rows")
	}
	t.Logf("\n%s", text)
}

func TestFigure3And4Shapes(t *testing.T) {
	res := sweep(t, grids.PanelConfig(1))
	raw := grids.Figure3Panels(res)[0] // mpeg
	if len(raw.Points) != 4000 {       // 40s of 10ms quanta
		t.Fatalf("figure 3 has %d points", len(raw.Points))
	}
	smooth, err := expt.Figure4Series("mpeg", raw)
	if err != nil {
		t.Fatal(err)
	}
	// The moving average shrinks the swing.
	swing := func(s expt.Series) float64 {
		lo, hi := s.Points[100].Y, s.Points[100].Y
		for _, p := range s.Points[100:] {
			lo = math.Min(lo, p.Y)
			hi = math.Max(hi, p.Y)
		}
		return hi - lo
	}
	if swing(smooth) >= swing(raw) {
		t.Errorf("100ms MA swing %v not below 10ms swing %v", swing(smooth), swing(raw))
	}
	if raw.Sparkline(60) == "" {
		t.Error("sparkline empty")
	}
}

// TestMPEGVarianceAtOneSecond checks the Section 5.1 remark that "for
// MPEG, there is even significant variance in CPU utilization (60-80%)
// when considering a 1 second moving average".
func TestMPEGVarianceAtOneSecond(t *testing.T) {
	raw := grids.Figure3Panels(sweep(t, grids.PanelConfig(1)))[0] // mpeg
	ys := make([]float64, len(raw.Points))
	for i, p := range raw.Points {
		ys[i] = p.Y
	}
	ma, err := analysis.MovingAverage(ys, 100) // 1 s of 10 ms quanta
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1.0, 0.0
	for _, v := range ma[200:] { // skip the fill-in transient
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo < 0.05 {
		t.Errorf("1s moving average spans only %.3f; the paper reports wide variance", hi-lo)
	}
	if lo < 0.55 || hi > 0.90 {
		t.Errorf("1s moving average band [%.2f, %.2f] outside the plausible 60-80%% region", lo, hi)
	}
}

func TestFigure8SlamsBetweenExtremes(t *testing.T) {
	cfg, err := grids.Figure8Config(1)
	if err != nil {
		t.Fatal(err)
	}
	res := sweep(t, cfg)
	s := grids.Figure8(res)
	seen59, seen206 := false, false
	for _, p := range s.Points {
		switch p.Y {
		case cpu.MinStep.MHz():
			seen59 = true
		case cpu.MaxStep.MHz():
			seen206 = true
		}
	}
	if !seen59 || !seen206 {
		t.Error("best policy did not visit both 59 and 206.4 MHz")
	}
	r := res.Cells[0].Result
	// "changes clock settings frequently"
	if r.ClockChanges < 100 {
		t.Errorf("only %d clock changes over 30s", r.ClockChanges)
	}
	// ...and never misses a deadline.
	if r.Misses != 0 {
		t.Errorf("best policy missed %d deadlines", r.Misses)
	}
}

func TestFigure9Plateau(t *testing.T) {
	s := grids.Figure9(sweep(t, grids.Figure9Config(1)))
	if len(s.Points) != cpu.NumSteps {
		t.Fatalf("%d points", len(s.Points))
	}
	byStep := make(map[cpu.Step]float64)
	for i, p := range s.Points {
		byStep[cpu.Step(i)] = p.Y
		_ = p
	}
	// The plateau: 162.2 → 176.9 MHz changes utilization by under 2
	// points, while 132.7 → 206.4 MHz spans more than 10.
	if diff := byStep[7] - byStep[8]; math.Abs(diff) > 2.5 {
		t.Errorf("utilization across the plateau changed by %.1f points", diff)
	}
	if spread := byStep[5] - byStep[10]; spread < 10 {
		t.Errorf("utilization spread 132.7→206.4 = %.1f points, want > 10", spread)
	}
}

func TestDeadlineComparison(t *testing.T) {
	cfg, err := grids.DeadlineConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	rows := grids.DeadlineComparison(sweep(t, cfg))
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	const (
		constant = 0
		best     = 1
		deadline = 2
		deadVS   = 3
	)
	// Nothing misses deadlines.
	for _, r := range rows {
		if r.Misses != 0 {
			t.Errorf("%s missed %d deadlines", r.Policy, r.Misses)
		}
	}
	// The deadline scheduler beats both the constant baseline and the
	// best heuristic: application-supplied deadlines are worth real
	// energy, which is why the paper's future work pointed there.
	if !(rows[deadline].EnergyJ < rows[best].EnergyJ) {
		t.Errorf("deadline (%0.2f J) not below best heuristic (%0.2f J)",
			rows[deadline].EnergyJ, rows[best].EnergyJ)
	}
	if !(rows[best].EnergyJ < rows[constant].EnergyJ) {
		t.Errorf("best heuristic (%0.2f J) not below constant (%0.2f J)",
			rows[best].EnergyJ, rows[constant].EnergyJ)
	}
	// Voltage scaling helps the deadline scheduler (it actually lives
	// below 162.2 MHz, unlike peg-peg).
	if !(rows[deadVS].EnergyJ < rows[deadline].EnergyJ) {
		t.Errorf("voltage scaling did not help: %0.2f vs %0.2f J",
			rows[deadVS].EnergyJ, rows[deadline].EnergyJ)
	}
	// The deadline scheduler settles near the clip's ideal speed rather
	// than slamming between the extremes.
	if rows[deadline].ModalMHz < 118 || rows[deadline].ModalMHz > 162.2 {
		t.Errorf("deadline scheduler modal clock = %.1f MHz, want near the 132.7 ideal",
			rows[deadline].ModalMHz)
	}
	if rows[best].ModalMHz != 206.4 && rows[best].ModalMHz != 59.0 {
		t.Errorf("peg-peg modal clock = %.1f MHz, want an extreme", rows[best].ModalMHz)
	}
	text := expt.RenderDeadlineComparison(rows)
	if !strings.Contains(text, "DEADLINE") {
		t.Error("render missing rows")
	}
	t.Logf("\n%s", text)
}

func TestPlaybackLifetime(t *testing.T) {
	cfg, err := grids.PlaybackConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := grids.PlaybackLifetime(sweep(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Endurance ordering mirrors the energy ordering: the 1.23 V sweet
	// spot lasts longest, constant full speed shortest (of the constants).
	if !(rows[2].Hours > rows[1].Hours && rows[1].Hours > rows[0].Hours) {
		t.Errorf("endurance ordering violated: %.2f, %.2f, %.2f h",
			rows[0].Hours, rows[1].Hours, rows[2].Hours)
	}
	// Everything is within plausible pocket-computer bounds.
	for _, r := range rows {
		if r.Hours < 0.2 || r.Hours > 24 {
			t.Errorf("%s endurance %.2f h implausible", r.Policy, r.Hours)
		}
		if r.AvgPowerW < 0.5 || r.AvgPowerW > 2.5 {
			t.Errorf("%s power %.3f W implausible", r.Policy, r.AvgPowerW)
		}
	}
	if !strings.Contains(expt.RenderPlaybackLifetime(rows), "hours") {
		t.Error("render missing header")
	}
}

func TestThresholdSensitivity(t *testing.T) {
	cells := grids.ThresholdSensitivity(sweep(t, grids.SensitivityConfig(1)))
	if len(cells) != 10 { // 5 grids × 2 workloads
		t.Fatalf("%d cells", len(cells))
	}
	// The Section 5.3 claim: no single bound pair is simultaneously the
	// energy-best miss-free choice for every application. Find, per
	// workload, the miss-free cell with the least energy; they must
	// differ, or at least aggressive bounds must miss deadlines somewhere
	// while saving energy elsewhere.
	bestFor := map[string]expt.SensitivityCell{}
	sawMissesSomewhere := false
	for _, c := range cells {
		if c.Misses > 0 {
			sawMissesSomewhere = true
			continue
		}
		cur, ok := bestFor[c.Workload]
		if !ok || c.EnergyJ < cur.EnergyJ {
			bestFor[c.Workload] = c
		}
	}
	if !sawMissesSomewhere {
		t.Error("every bound pair was miss-free on every workload; sensitivity claim untested")
	}
	for w, c := range bestFor {
		t.Logf("best miss-free bounds for %-8s: %d%%-%d%% (%.2f J)", w, c.LoPct, c.HiPct, c.EnergyJ)
	}
	if !strings.Contains(expt.RenderSensitivity(cells), "bounds") {
		t.Error("render missing header")
	}
}

func TestWeiserOnWorkloads(t *testing.T) {
	rows, err := grids.Weiser(sweep(t, grids.TraceConfig(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// OPT never exceeds FUTURE, and both are clairvoyant (≤ full
		// speed = 1.0).
		if r.OptEnergy > r.FutureEnergy+1e-9 {
			t.Errorf("%s: OPT %.3f above FUTURE %.3f", r.Workload, r.OptEnergy, r.FutureEnergy)
		}
		if r.FutureEnergy > 1+1e-9 {
			t.Errorf("%s: FUTURE energy %.3f above full speed", r.Workload, r.FutureEnergy)
		}
		if r.OptEnergy <= 0 {
			t.Errorf("%s: OPT energy %.3f non-positive", r.Workload, r.OptEnergy)
		}
		// PAST misses work on every real workload: the lag is universal.
		if r.PastMissed <= 0 {
			t.Errorf("%s: PAST missed no work; the one-interval lag must cost something", r.Workload)
		}
	}
	// The headroom claim: OPT saves drastically on the bursty interactive
	// workloads (web, chess) where idle time dominates.
	for _, r := range rows {
		if r.Workload == "web" || r.Workload == "chess" {
			if r.OptEnergy > 0.5 {
				t.Errorf("%s: OPT energy %.3f; bursty idle should allow large stretch savings",
					r.Workload, r.OptEnergy)
			}
		}
	}
	if !strings.Contains(expt.RenderWeiser(rows), "OPT") {
		t.Error("render missing header")
	}
	t.Logf("\n%s", expt.RenderWeiser(rows))
}
