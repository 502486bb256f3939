package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"clocksched"
)

// oldSpellings maps each spelling of the retired -policy grammar
// ("constant:<MHz>[:lowv]", "<pred>-<up>-<down>:<lo>:<hi>[:vs]",
// "deadline[:vs]", "prop-<pred>:<target>[:vs]") to the flat literal its
// parser returned and to the registry text form that replaces it.
var oldSpellings = []struct {
	old  string
	flat clocksched.Policy
	ref  string
}{
	{"constant:206.4", clocksched.Policy{Constant: true, MHz: 206.4}, "constant"},
	{"constant:132.7", clocksched.Policy{Constant: true, MHz: 132.7}, "constant:mhz=132.7"},
	{"constant:132.7:lowv", clocksched.Policy{Constant: true, MHz: 132.7, LowVoltage: true}, "constant:low_voltage=1,mhz=132.7"},
	{"constant:59:lowv", clocksched.Policy{Constant: true, MHz: 59, LowVoltage: true}, "constant:low_voltage=1,mhz=59"},
	{"past-peg-peg:93:98", clocksched.Policy{Up: clocksched.Peg, Down: clocksched.Peg, LoPercent: 93, HiPercent: 98}, "past-peg-peg"},
	{"past-peg-peg:93:98:vs", clocksched.Policy{Up: clocksched.Peg, Down: clocksched.Peg, LoPercent: 93, HiPercent: 98, VoltageScale: true},
		"past-peg-peg:voltage_scale=1"},
	{"past-one-double:60:90", clocksched.Policy{Up: clocksched.One, Down: clocksched.Double, LoPercent: 60, HiPercent: 90},
		"pering-avg-n:down=1,hi_percent=90,lo_percent=60,n=0,up=0"},
	{"past-double-peg:50:70:vs", clocksched.Policy{Up: clocksched.Double, Down: clocksched.Peg, LoPercent: 50, HiPercent: 70, VoltageScale: true},
		"pering-avg-n:down=2,n=0,up=1,voltage_scale=1"},
	{"avg9-one-double:50:70:vs", clocksched.Policy{AvgN: 9, Up: clocksched.One, Down: clocksched.Double, LoPercent: 50, HiPercent: 70, VoltageScale: true},
		"pering-avg-n:down=1,n=9,up=0,voltage_scale=1"},
	{"avg3-double-one:50:70:vs", clocksched.Policy{AvgN: 3, Up: clocksched.Double, Down: clocksched.One, LoPercent: 50, HiPercent: 70, VoltageScale: true},
		"pering-avg-n:down=0,n=3,up=1,voltage_scale=1"},
	{"avg9-peg-one:55:98", clocksched.Policy{AvgN: 9, Up: clocksched.Peg, Down: clocksched.One, LoPercent: 55, HiPercent: 98},
		"pering-avg-n:down=0,hi_percent=98,lo_percent=55,n=9,up=2"},
	{"deadline", clocksched.Policy{Deadline: true}, "deadline"},
	{"deadline:vs", clocksched.Policy{Deadline: true, VoltageScale: true}, "deadline:voltage_scale=1"},
	{"prop-avg3:70", clocksched.Policy{Proportional: true, AvgN: 3, TargetPercent: 70}, "proportional:n=3,target_percent=70"},
	{"prop-past:90:vs", clocksched.Policy{Proportional: true, TargetPercent: 90, VoltageScale: true},
		"proportional:n=0,target_percent=90,voltage_scale=1"},
}

// buildRef parses ref, checks that it is canonical, and builds it with Ref
// cleared so it compares equal to a flat literal.
func buildRef(t *testing.T, old, ref string) clocksched.Policy {
	t.Helper()
	r, err := clocksched.ParsePolicyRef(ref)
	if err != nil {
		t.Fatalf("%s: %v", old, err)
	}
	if r.String() != ref {
		t.Errorf("%s: ref %q renders as %q, want the canonical form", old, ref, r.String())
	}
	built, err := r.Build()
	if err != nil {
		t.Fatalf("%s: %v", old, err)
	}
	built.Ref = nil
	return built
}

// checkFamily checks that every old spelling whose literal is picked by in
// has a ref that builds exactly that literal. A family with no rows fails.
func checkFamily(t *testing.T, in func(clocksched.Policy) bool) {
	t.Helper()
	n := 0
	for _, c := range oldSpellings {
		if !in(c.flat) {
			continue
		}
		n++
		if built := buildRef(t, c.old, c.ref); built != c.flat {
			t.Errorf("%s: %q builds %+v, want %+v", c.old, c.ref, built, c.flat)
		}
	}
	if n == 0 {
		t.Fatal("no old spellings in this family")
	}
}

func TestParsePolicyConstant(t *testing.T) {
	checkFamily(t, func(p clocksched.Policy) bool { return p.Constant })
}

func TestParsePolicyInterval(t *testing.T) {
	checkFamily(t, func(p clocksched.Policy) bool { return !p.Constant && !p.Deadline && !p.Proportional })
}

func TestParsePolicyDeadline(t *testing.T) {
	checkFamily(t, func(p clocksched.Policy) bool { return p.Deadline })
}

func TestParsePolicyProportional(t *testing.T) {
	checkFamily(t, func(p clocksched.Policy) bool { return p.Proportional })
}

// TestParsedPoliciesActuallyRun checks that every old spelling's literal
// and its ref print byte-equal itsysim reports.
func TestParsedPoliciesActuallyRun(t *testing.T) {
	for _, c := range oldSpellings {
		built := buildRef(t, c.old, c.ref)
		want := runOutput(t, c.flat)
		if got := runOutput(t, built); got != want {
			t.Errorf("%s: %q prints\n%s\nthe literal printed\n%s", c.old, c.ref, got, want)
		}
	}
}

// runOutput returns run's report for pol over half a second of MPEG.
func runOutput(t *testing.T, pol clocksched.Policy) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(&out, &errOut, pol, nil, nil, "mpeg", 1, 1, 0, 500*time.Millisecond, false, ""); code != 0 {
		t.Fatalf("run(%s) exit %d: %s", pol.Name(), code, errOut.String())
	}
	return out.String()
}

// TestPolicyFlag drives the command line: registry names the retired
// grammar could not reach run, and an old spelling is refused with exit 2
// and the form to use instead.
func TestPolicyFlag(t *testing.T) {
	for _, spec := range []string{"oa", "avr:slack_quanta=5"} {
		var out, errOut bytes.Buffer
		if code := cli([]string{"-policy", spec, "-duration", "500ms"}, &out, &errOut); code != 0 {
			t.Errorf("-policy %s: exit %d: %s", spec, code, errOut.String())
		}
		if !strings.Contains(out.String(), "energy:") {
			t.Errorf("-policy %s printed no report:\n%s", spec, out.String())
		}
	}
	for _, spec := range []string{"past-peg-peg:93:98", "constant:132.7:lowv", "deadline:vs", "warp", "constant:mhz=NaN"} {
		var out, errOut bytes.Buffer
		if code := cli([]string{"-policy", spec}, &out, &errOut); code != 2 {
			t.Errorf("-policy %s: exit %d, want 2", spec, code)
		}
		if spec == "past-peg-peg:93:98" && !strings.Contains(errOut.String(), "name:key=value") {
			t.Errorf("-policy %s: error %q does not name the name:key=value form", spec, errOut.String())
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
