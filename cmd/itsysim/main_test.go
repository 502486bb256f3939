package main

import (
	"testing"

	"clocksched"
)

func TestParsePolicyConstant(t *testing.T) {
	p, err := parsePolicy("constant:132.7")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Constant || p.MHz != 132.7 || p.LowVoltage {
		t.Errorf("parsed %+v", p)
	}
	p, err = parsePolicy("constant:132.7:lowv")
	if err != nil {
		t.Fatal(err)
	}
	if !p.LowVoltage {
		t.Errorf("lowv not parsed: %+v", p)
	}
}

func TestParsePolicyInterval(t *testing.T) {
	p, err := parsePolicy("past-peg-peg:93:98")
	if err != nil {
		t.Fatal(err)
	}
	want := clocksched.Policy{Up: clocksched.Peg, Down: clocksched.Peg, LoPercent: 93, HiPercent: 98}
	if p != want {
		t.Errorf("parsed %+v, want %+v", p, want)
	}

	p, err = parsePolicy("avg9-one-double:50:70:vs")
	if err != nil {
		t.Fatal(err)
	}
	if p.AvgN != 9 || p.Up != clocksched.One || p.Down != clocksched.Double ||
		p.LoPercent != 50 || p.HiPercent != 70 || !p.VoltageScale {
		t.Errorf("parsed %+v", p)
	}
}

func TestParsePolicyErrors(t *testing.T) {
	bad := []string{
		"constant",
		"constant:abc",
		"constant:132.7:weird",
		"constant:132.7:lowv:extra",
		"past-peg:93:98",
		"past-peg-peg",
		"past-peg-peg:93",
		"past-peg-peg:93:98:99:100",
		"past-peg-peg:abc:98",
		"past-peg-peg:93:xyz",
		"past-peg-peg:93:98:warp",
		"avgX-peg-peg:93:98",
		"avg-3-peg:93:98",
		"warp-peg-peg:93:98",
	}
	for _, spec := range bad {
		if _, err := parsePolicy(spec); err == nil {
			t.Errorf("accepted %q", spec)
		}
	}
}

// TestParsedPoliciesActuallyRun feeds parsed specs through the library to
// make sure the CLI surface and the API agree.
func TestParsedPoliciesActuallyRun(t *testing.T) {
	for _, spec := range []string{
		"constant:206.4",
		"constant:59:lowv",
		"past-peg-peg:93:98",
		"avg3-double-one:50:70:vs",
	} {
		p, err := parsePolicy(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if _, err := clocksched.Run(clocksched.Config{
			Workload: clocksched.RectWave,
			Policy:   p,
			Duration: 500_000_000, // 0.5 s
		}); err != nil {
			t.Errorf("%q failed to run: %v", spec, err)
		}
	}
}

func TestParsePolicyDeadline(t *testing.T) {
	p, err := parsePolicy("deadline")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Deadline || p.VoltageScale {
		t.Errorf("parsed %+v", p)
	}
	p, err = parsePolicy("deadline:vs")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Deadline || !p.VoltageScale {
		t.Errorf("parsed %+v", p)
	}
	if _, err := parsePolicy("deadline:warp"); err == nil {
		t.Error("bad deadline option accepted")
	}
}

func TestParsePolicyProportional(t *testing.T) {
	p, err := parsePolicy("prop-avg3:70")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Proportional || p.AvgN != 3 || p.TargetPercent != 70 || p.VoltageScale {
		t.Errorf("parsed %+v", p)
	}
	p, err = parsePolicy("prop-past:90:vs")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Proportional || p.AvgN != 0 || !p.VoltageScale {
		t.Errorf("parsed %+v", p)
	}
	for _, bad := range []string{"prop-past", "prop-xyz:70", "prop-past:abc", "prop-past:70:zz", "prop-past:70:vs:extra"} {
		if _, err := parsePolicy(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseFaults(t *testing.T) {
	if p, err := parseFaults(""); p != nil || err != nil {
		t.Errorf("empty spec = %v, %v, want nil plan", p, err)
	}
	p, err := parseFaults("clockfail=0.01,jitter=0.05,drop=0.001,glitch=0.002,stall=0.1,tracedrop=0.01,tracedelay=0.02")
	if err != nil {
		t.Fatal(err)
	}
	if p.ClockChangeFailProb != 0.01 || p.TimerJitterProb != 0.05 ||
		p.SampleDropProb != 0.001 || p.SampleGlitchProb != 0.002 ||
		p.SettleStallProb != 0.1 || p.TraceDropProb != 0.01 || p.TraceDelayProb != 0.02 {
		t.Errorf("parsed plan = %+v", p)
	}
	for _, bad := range []string{
		"clockfail",       // no value
		"clockfail=x",     // not a number
		"clockfail=1.5",   // out of range
		"clockfail=-0.1",  // negative
		"warp=0.5",        // unknown kind
		"clockfail=0.1,,", // empty pair
	} {
		if _, err := parseFaults(bad); err == nil {
			t.Errorf("parseFaults(%q) accepted", bad)
		}
	}
}
