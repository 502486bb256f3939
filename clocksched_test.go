package clocksched

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRunDefaults(t *testing.T) {
	res, err := Run(Config{Duration: 5 * time.Second, CaptureTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyJoules <= 0 {
		t.Errorf("energy = %v", res.EnergyJoules)
	}
	if res.Misses != 0 {
		t.Errorf("default MPEG at full speed missed %d deadlines", res.Misses)
	}
	if res.ClockChanges != 0 {
		t.Errorf("constant policy changed the clock %d times", res.ClockChanges)
	}
	if res.TraceLen() != 500 {
		t.Errorf("trace has %d quanta, want 500", res.TraceLen())
	}
	n := 0
	for p := range res.TraceSeq() {
		if p.MHz != 206.4 {
			t.Fatalf("trace point at %v ran at %.1f MHz", p.At, p.MHz)
		}
		n++
	}
	if n != res.TraceLen() {
		t.Errorf("TraceSeq yielded %d points, TraceLen says %d", n, res.TraceLen())
	}
	if res.TimeAtMHz[206.4] != 5*time.Second {
		t.Errorf("residency = %v", res.TimeAtMHz)
	}

	// Without CaptureTrace the trace is absent — the batch-friendly default.
	lean, err := Run(Config{Duration: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if lean.TraceLen() != 0 {
		t.Errorf("trace captured without opt-in: %d points", lean.TraceLen())
	}
}

func TestRunBestPolicy(t *testing.T) {
	res, err := Run(Config{
		Workload: MPEG,
		Policy:   mustPolicy(t, "past-peg-peg", nil),
		Duration: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Errorf("best policy missed %d deadlines", res.Misses)
	}
	if res.ClockChanges < 20 {
		t.Errorf("best policy made only %d clock changes", res.ClockChanges)
	}
	if res.TimeAtMHz[59.0] == 0 || res.TimeAtMHz[206.4] == 0 {
		t.Errorf("peg-peg residency missing extremes: %v", res.TimeAtMHz)
	}
	if res.StallTime == 0 {
		t.Error("clock changes incurred no stall time")
	}
}

func TestRunSavesEnergyAtLowerConstantSpeed(t *testing.T) {
	at := func(params map[string]float64) float64 {
		res, err := Run(Config{
			Workload: MPEG,
			Policy:   mustPolicy(t, "constant", params),
			Duration: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Misses != 0 {
			t.Fatalf("missed %d deadlines at %v", res.Misses, params)
		}
		return res.EnergyJoules
	}
	full := at(nil)
	sweet := at(map[string]float64{"mhz": 132.7})
	lowV := at(map[string]float64{"mhz": 132.7, "low_voltage": 1})
	if !(lowV < sweet && sweet < full) {
		t.Errorf("energy ordering violated: %v, %v, %v", full, sweet, lowV)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 7, Duration: 5 * time.Second}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyJoules != b.EnergyJoules || a.ClockChanges != b.ClockChanges {
		t.Errorf("same-seed runs differ: %v/%d vs %v/%d",
			a.EnergyJoules, a.ClockChanges, b.EnergyJoules, b.ClockChanges)
	}
}

func TestRunSeedsVary(t *testing.T) {
	energy := func(seed uint64) float64 {
		res, err := Run(Config{Workload: MPEG, Seed: seed, Duration: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return res.EnergyJoules
	}
	if energy(1) == energy(2) {
		t.Error("different seeds produced identical energy; jitter missing")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(Config{Duration: -time.Second}); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := Run(Config{Policy: Policy{Constant: true, MHz: 206.4, LowVoltage: true}}); err == nil {
		t.Error("1.23V at 206.4MHz accepted")
	}
	if _, err := Run(Config{Policy: Policy{AvgN: -1, Up: Peg, Down: Peg, LoPercent: 50, HiPercent: 70}}); err == nil {
		t.Error("negative AVG_N accepted")
	}
	if _, err := Run(Config{Policy: Policy{Up: "warp", Down: Peg, LoPercent: 50, HiPercent: 70}}); err == nil {
		t.Error("unknown up setter accepted")
	}
	if _, err := Run(Config{Policy: Policy{Up: Peg, Down: "warp", LoPercent: 50, HiPercent: 70}}); err == nil {
		t.Error("unknown down setter accepted")
	}
	if _, err := Run(Config{Policy: Policy{Up: Peg, Down: Peg, LoPercent: 90, HiPercent: 20}}); err == nil {
		t.Error("inverted bounds accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"Constant @ 206.4MHz, 1.5V":  mustPolicy(t, "constant", nil),
		"Constant @ 132.7MHz, 1.23V": mustPolicy(t, "constant", map[string]float64{"mhz": 132.7, "low_voltage": 1}),
		"PAST, peg-peg, 93%-98%":     mustPolicy(t, "past-peg-peg", nil),
		"AVG_9, one-double, 50%-70%": mustPolicy(t, "pering-avg-n", map[string]float64{"n": 9, "up": 0, "down": 1}),
	}
	for want, p := range cases {
		if got := p.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
	vs := mustPolicy(t, "past-peg-peg", map[string]float64{"voltage_scale": 1})
	if !strings.Contains(vs.Name(), "voltage scaling") {
		t.Errorf("Name = %q", vs.Name())
	}
}

func TestClockStepsMHz(t *testing.T) {
	steps := ClockStepsMHz()
	if len(steps) != 11 {
		t.Fatalf("%d steps", len(steps))
	}
	if steps[0] != 59.0 || steps[10] != 206.4 {
		t.Errorf("steps = %v", steps)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] <= steps[i-1] {
			t.Error("steps not increasing")
		}
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 6 {
		t.Fatalf("%d workloads", len(ws))
	}
	for _, w := range ws {
		res, err := Run(Config{Workload: w, Duration: 2 * time.Second})
		if err != nil {
			t.Errorf("%s: %v", w, err)
			continue
		}
		if res.EnergyJoules <= 0 {
			t.Errorf("%s produced no energy", w)
		}
	}
}

func TestResultConsistency(t *testing.T) {
	res, err := Run(Config{Workload: RectWave, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Energy ≈ power × time.
	if rel := math.Abs(res.EnergyJoules-res.AvgPowerWatts*10) / res.EnergyJoules; rel > 0.001 {
		t.Errorf("energy/power mismatch: %v", rel)
	}
	if res.PeakPowerWatts < res.AvgPowerWatts {
		t.Error("peak below average")
	}
	// Residency sums to the run length.
	var total time.Duration
	for _, d := range res.TimeAtMHz {
		total += d
	}
	if total != 10*time.Second {
		t.Errorf("residency sums to %v", total)
	}
}

func TestRunDeadlinePolicy(t *testing.T) {
	p := mustPolicy(t, "deadline", map[string]float64{"voltage_scale": 1})
	res, err := Run(Config{
		Workload: MPEG,
		Policy:   p,
		Duration: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Errorf("deadline policy missed %d deadlines", res.Misses)
	}
	// The scheduler settles near the clip's ideal step, not the extremes.
	var modalMHz float64
	var modalTime time.Duration
	for mhz, d := range res.TimeAtMHz {
		if d > modalTime {
			modalTime, modalMHz = d, mhz
		}
	}
	if modalMHz < 118 || modalMHz > 162.2 {
		t.Errorf("modal clock %.1f MHz, want near 132.7", modalMHz)
	}
	if res.VoltageChanges == 0 {
		t.Error("voltage scaling never engaged")
	}
	if p.Name() != "DEADLINE, voltage scaling" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestRunProportionalPolicy(t *testing.T) {
	res, err := Run(Config{
		Workload: MPEG,
		Policy:   mustPolicy(t, "proportional", map[string]float64{"n": 0, "target_percent": 70}),
		Duration: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClockChanges == 0 {
		t.Error("proportional governor never moved")
	}
	if got := mustPolicy(t, "proportional", map[string]float64{"n": 3, "target_percent": 70}).Name(); got != "PROPORTIONAL(AVG_3, 70%)" {
		t.Errorf("Name = %q", got)
	}
	if _, err := Run(Config{Policy: Policy{Proportional: true}}); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := Run(Config{Policy: Policy{Proportional: true, AvgN: -1, TargetPercent: 70}}); err == nil {
		t.Error("negative AvgN accepted")
	}
}

func TestRunFaultedDeterministic(t *testing.T) {
	// Same seed + same plan must reproduce the entire Result bit for bit,
	// fault schedule included.
	cfg := Config{
		Workload: MPEG,
		Policy:   mustPolicy(t, "past-peg-peg", nil),
		Seed:     7,
		Duration: 5 * time.Second,
		Faults: &FaultPlan{
			ClockChangeFailProb: 0.02,
			SettleStallProb:     0.05,
			SampleDropProb:      0.01,
			SampleGlitchProb:    0.01,
			TimerJitterProb:     0.05,
			TraceDropProb:       0.02,
			TraceDelayProb:      0.02,
		},
		Watchdog: &WatchdogConfig{},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed+plan runs differ:\n%+v\n%+v", a, b)
	}
	if a.Faults == nil || a.Faults.Total == 0 {
		t.Error("plan injected nothing")
	}
	if a.Watchdog == nil {
		t.Error("watchdog report missing")
	}
}

func TestRunNilPlanMatchesUnfaulted(t *testing.T) {
	// Disabling the fault layer must not perturb an existing seeded run.
	cfg := Config{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 7, Duration: 5 * time.Second}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &FaultPlan{} // zero plan: injector disabled
	zero, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zero.Faults = nil // the only permitted difference is the empty report
	if !reflect.DeepEqual(plain, zero) {
		t.Errorf("zero fault plan changed the run:\n%+v\n%+v", plain, zero)
	}
}

func TestRunFaultReportAndWatchdogReport(t *testing.T) {
	res, err := Run(Config{
		Workload: MPEG,
		Policy:   mustPolicy(t, "past-peg-peg", nil),
		Seed:     1,
		Duration: 10 * time.Second,
		Faults:   &FaultPlan{ClockChangeFailProb: 0.01},
		Watchdog: &WatchdogConfig{},
	})
	if err != nil {
		t.Fatalf("faulted run errored: %v", err)
	}
	if res.Faults == nil || res.Faults.ClockChangeFails == 0 {
		t.Fatalf("fault report = %+v", res.Faults)
	}
	if res.Faults.Total != res.Faults.ClockChangeFails {
		t.Errorf("only clock fails enabled, but total %d != %d",
			res.Faults.Total, res.Faults.ClockChangeFails)
	}
	if res.Watchdog == nil {
		t.Fatal("watchdog report missing")
	}
}

func TestRunWatchdogNeedsPolicy(t *testing.T) {
	_, err := Run(Config{
		Workload: MPEG,
		Policy:   mustPolicy(t, "constant", nil),
		Duration: time.Second,
		Watchdog: &WatchdogConfig{},
	})
	if err == nil {
		t.Fatal("watchdog over a constant policy should be rejected")
	}
}

func TestRunBadFaultPlanRejected(t *testing.T) {
	_, err := Run(Config{
		Workload: MPEG,
		Duration: time.Second,
		Faults:   &FaultPlan{ClockChangeFailProb: 1.5},
	})
	if err == nil {
		t.Fatal("probability 1.5 accepted")
	}
}
