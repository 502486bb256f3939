package clocksched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// registerForTest registers a builder, tolerating the duplicate error a
// -count>1 rerun of the same test binary produces.
func registerForTest(t *testing.T, name string, b PolicyBuilder) {
	t.Helper()
	if err := RegisterPolicy(name, b); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
}

// mustPolicy builds a registered policy, failing the test on error.
func mustPolicy(tb testing.TB, name string, params map[string]float64) Policy {
	tb.Helper()
	p, err := NewPolicy(name, params)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// pastPegPegFlat is the flat field form of past-peg-peg: the literal that
// specs written before the registry carry.
var pastPegPegFlat = Policy{Up: Peg, Down: Peg, LoPercent: 93, HiPercent: 98}

// stripRef returns the policy's resolved fields alone, for comparing a
// registry-built policy against its flat-form equivalent.
func stripRef(p Policy) Policy {
	p.Ref = nil
	return p
}

func TestRegistryHasPaperPolicies(t *testing.T) {
	names := RegisteredPolicies()
	for _, want := range []string{"constant", "past-peg-peg", "pering-avg-n", "deadline", "proportional"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
}

// TestNewPolicyMatchesConstructors pins the compatibility contract: each
// pre-registered name resolves to exactly the flat field literal the
// package's retired constructors returned, so Name() strings, Table 2 rows,
// and run results are identical across the two wire forms.
func TestNewPolicyMatchesConstructors(t *testing.T) {
	cases := []struct {
		name   string
		params map[string]float64
		want   Policy
	}{
		{"constant", nil, Policy{Constant: true, MHz: 206.4}},
		{"constant", map[string]float64{"mhz": 132.7, "low_voltage": 1}, Policy{Constant: true, MHz: 132.7, LowVoltage: true}},
		{"past-peg-peg", nil, pastPegPegFlat},
		{"pering-avg-n", nil, Policy{AvgN: 12, Up: Peg, Down: Peg, LoPercent: 50, HiPercent: 70}},
		{"pering-avg-n", map[string]float64{"n": 4, "up": 1, "down": 0}, Policy{AvgN: 4, Up: Double, Down: One, LoPercent: 50, HiPercent: 70}},
		{"deadline", map[string]float64{"voltage_scale": 1}, Policy{Deadline: true, VoltageScale: true}},
		{"proportional", nil, Policy{Proportional: true, AvgN: 12, TargetPercent: 80}},
	}
	for _, c := range cases {
		got, err := NewPolicy(c.name, c.params)
		if err != nil {
			t.Errorf("NewPolicy(%q, %v): %v", c.name, c.params, err)
			continue
		}
		if got.Ref == nil || got.Ref.Name != c.name {
			t.Errorf("NewPolicy(%q) ref = %+v, want name recorded", c.name, got.Ref)
		}
		if stripRef(got) != c.want {
			t.Errorf("NewPolicy(%q, %v) = %+v, want %+v", c.name, c.params, stripRef(got), c.want)
		}
		if got.Name() != c.want.Name() {
			t.Errorf("NewPolicy(%q).Name() = %q, flat form says %q", c.name, got.Name(), c.want.Name())
		}
	}
}

// TestNewPolicyAllocs guards the build path: validating every built policy
// must not allocate on success. The ceilings are the counts measured
// before NewPolicy validated: the params bookkeeping map, the policy
// reference, and, with parameters, its copied map.
func TestNewPolicyAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		params map[string]float64
		max    float64
	}{
		{"past-peg-peg", nil, 3},
		{"pering-avg-n", nil, 3},
		{"proportional", nil, 3},
		{"constant", map[string]float64{"mhz": 132.7, "low_voltage": 1}, 5},
		{"bkp", map[string]float64{"slack_quanta": 5}, 5},
	} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := NewPolicy(c.name, c.params); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("NewPolicy(%q, %v) allocates %v times, want at most %v", c.name, c.params, got, c.max)
		}
	}
}

// TestNewPolicyRejectsBadInput pins admission-time rejection: an unknown
// name, an unknown or malformed parameter, and one out-of-domain parameter
// per built-in policy must each fail NewPolicy itself, and the JSON decode
// of a SweepSpec naming it, rather than the cell that would later run it.
func TestNewPolicyRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		ref  PolicyRef
		want string
	}{
		{PolicyRef{Name: "no-such-policy"}, "unknown policy"},
		{PolicyRef{Name: "past-peg-peg", Params: map[string]float64{"lo_pct": 90}}, `unknown parameter "lo_pct"`},
		{PolicyRef{Name: "pering-avg-n", Params: map[string]float64{"n": 2.5}}, "must be an integer"},
		{PolicyRef{Name: "pering-avg-n", Params: map[string]float64{"up": 7}}, "speed-setter code"},
		{PolicyRef{Name: "constant", Params: map[string]float64{"mhz": -5}}, "positive MHz"},
		{PolicyRef{Name: "constant", Params: map[string]float64{"mhz": math.NaN()}}, "positive MHz"},
		{PolicyRef{Name: "constant", Params: map[string]float64{"mhz": math.Inf(-1)}}, "positive MHz"},
		{PolicyRef{Name: "constant", Params: map[string]float64{"mhz": math.Inf(1)}}, "overflows an int64 kHz clock"},
		{PolicyRef{Name: "constant", Params: map[string]float64{"mhz": 1e300, "low_voltage": 1}}, "overflows an int64 kHz clock"},
		{PolicyRef{Name: "constant", Params: map[string]float64{"mhz": 9.3e15}}, "overflows an int64 kHz clock"},
		{PolicyRef{Name: "past-peg-peg", Params: map[string]float64{"lo_percent": 99, "hi_percent": 10}}, "bounds 99%-10%"},
		{PolicyRef{Name: "pering-avg-n", Params: map[string]float64{"n": -1}}, "negative AVG_N"},
		{PolicyRef{Name: "deadline", Params: map[string]float64{"voltage_scale": 2}}, `"voltage_scale" must be 0 or 1`},
		{PolicyRef{Name: "proportional", Params: map[string]float64{"target_percent": 0}}, "target 0%"},
		{PolicyRef{Name: "oa", Params: map[string]float64{"slack_quanta": -1}}, "negative zoo slack"},
		{PolicyRef{Name: "avr", Params: map[string]float64{"slack_quanta": -2}}, "negative zoo slack"},
		{PolicyRef{Name: "bkp", Params: map[string]float64{"voltage_scale": 0.5}}, `"voltage_scale" must be 0 or 1`},
	} {
		if _, err := c.ref.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewPolicy(%q, %v): err = %v, want %q", c.ref.Name, c.ref.Params, err, c.want)
		}
		ref, err := json.Marshal(c.ref)
		var unsupported *json.UnsupportedValueError
		if errors.As(err, &unsupported) {
			continue // NaN and ±Inf have no JSON form, so no spec carries them
		}
		if err != nil {
			t.Fatal(err)
		}
		var spec SweepSpec
		if err := json.Unmarshal([]byte(`{"policies":[`+string(ref)+`]}`), &spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("SweepSpec naming %s: decode err = %v, want %q", ref, err, c.want)
		}
	}
	if err := RegisterPolicy("", func(Params) (Policy, error) { return Policy{}, nil }); err == nil {
		t.Error("empty name registered")
	}
	if err := RegisterPolicy("x:colon", func(Params) (Policy, error) { return Policy{}, nil }); err == nil {
		t.Error("name with ':' registered")
	}
	if err := RegisterPolicy("x-nil-builder", nil); err == nil {
		t.Error("nil builder registered")
	}
	if err := RegisterPolicy("constant", func(Params) (Policy, error) { return Policy{}, nil }); err == nil {
		t.Error("duplicate registration accepted")
	}
}

// TestPolicyRefText pins the text form: String sorts keys and writes the
// shortest exact float, ParsePolicyRef reads any key order back to the same
// bits (-0 included), and each malformed form is refused with the form to use.
func TestPolicyRefText(t *testing.T) {
	for _, c := range []struct{ in, canon string }{
		{"oa", "oa"},
		{"avr:slack_quanta=5", "avr:slack_quanta=5"},
		{"constant:mhz=132.7,low_voltage=1", "constant:low_voltage=1,mhz=132.7"},
		{"constant:mhz=-0", "constant:mhz=-0"},
		{"constant:mhz=1e+02", "constant:mhz=100"},
		{"constant:mhz=0.1", "constant:mhz=0.1"},
	} {
		r, err := ParsePolicyRef(c.in)
		if err != nil {
			t.Errorf("ParsePolicyRef(%q): %v", c.in, err)
			continue
		}
		if got := r.String(); got != c.canon {
			t.Errorf("ParsePolicyRef(%q).String() = %q, want %q", c.in, got, c.canon)
		}
	}
	negZero := PolicyRef{Name: "constant", Params: map[string]float64{"mhz": math.Copysign(0, -1)}}
	if back, err := ParsePolicyRef(negZero.String()); err != nil || !math.Signbit(back.Params["mhz"]) {
		t.Errorf("-0 round trip: %+v, %v", back, err)
	}
	for _, bad := range []string{
		"", ":mhz=1", "constant:", "constant:mhz", "constant:=1", "constant:mhz=1,",
		"constant:mhz=1,mhz=2", "x:a:b=1", "constant:mhz=1=2", "constant:mhz=NaN",
		"constant:mhz=Inf", "constant:mhz=1e999", "constant:mhz=abc", "past-peg-peg:93:98",
	} {
		if r, err := ParsePolicyRef(bad); err == nil || !strings.Contains(err.Error(), "name:key=value") {
			t.Errorf("ParsePolicyRef(%q) = %+v, %v; want an error naming the form", bad, r, err)
		}
	}
}

// TestPolicyJSONWireForms pins both encodings: a ref-built policy travels
// as {"name", "params"} and reconstructs through the registry; a policy
// literal keeps the flat field form specs used before the registry existed.
func TestPolicyJSONWireForms(t *testing.T) {
	ref, err := NewPolicy("past-peg-peg", map[string]float64{"lo_percent": 90, "voltage_scale": 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"name":"past-peg-peg"`) || strings.Contains(string(b), "avg_n") {
		t.Fatalf("ref policy wire form = %s, want compact registry form", b)
	}
	var back Policy
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ref) {
		t.Errorf("ref round trip: %+v != %+v", back, ref)
	}

	flat := Policy{AvgN: 8, Up: Double, Down: Peg, LoPercent: 50, HiPercent: 70}
	b, err = json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"name"`) {
		t.Fatalf("literal policy wire form = %s, want flat fields", b)
	}
	var flatBack Policy
	if err := json.Unmarshal(b, &flatBack); err != nil {
		t.Fatal(err)
	}
	if flatBack != flat {
		t.Errorf("flat round trip: %+v != %+v", flatBack, flat)
	}

	// A spec naming a policy this process has not registered fails at
	// decode — admission time — not mid-sweep.
	if err := json.Unmarshal([]byte(`{"name":"from-the-future"}`), &back); err == nil {
		t.Error("unknown registry name decoded without error")
	}
}

// TestSweepSpecPolicyRefRoundTrip ships a mixed grid — registry-form and
// flat-form policies side by side — through the SweepSpec JSON wire format
// and back into a runnable config.
func TestSweepSpecPolicyRefRoundTrip(t *testing.T) {
	ref, err := NewPolicy("pering-avg-n", map[string]float64{"n": 4, "voltage_scale": 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{
		Workloads: []Workload{RectWave},
		Policies:  []Policy{ref, pastPegPegFlat},
		Seeds:     []uint64{1, 2},
		Duration:  time.Second,
	}
	spec := NewSweepSpec(cfg)
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"name":"pering-avg-n"`) {
		t.Fatalf("spec JSON lacks the registry wire form: %s", b)
	}
	var back SweepSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Policies, cfg.Policies) {
		t.Errorf("policies after round trip:\n got %+v\nwant %+v", got.Policies, cfg.Policies)
	}
}

// TestEncodeSweepResultCanonicalWithRef pins the canonical-bytes guarantee
// for registry policies: a ref with several parameters (a Go map, which
// gob would otherwise serialize in random order) must encode to identical
// bytes every time, and decode back with the ref intact.
func TestEncodeSweepResultCanonicalWithRef(t *testing.T) {
	ref, err := NewPolicy("past-peg-peg", map[string]float64{
		"lo_percent": 90, "hi_percent": 97, "voltage_scale": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(context.Background(), SweepConfig{
		Workloads: []Workload{RectWave},
		Policies:  []Policy{ref},
		Seeds:     []uint64{1},
		Duration:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := EncodeSweepResult(res)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b, err := EncodeSweepResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("encode %d of a ref-built policy differs from the first", i+2)
		}
	}
	back, err := DecodeSweepResult(a)
	if err != nil {
		t.Fatal(err)
	}
	gotRef := back.Cells[0].Config.Policy.Ref
	if gotRef == nil || !reflect.DeepEqual(*gotRef, *ref.Ref) {
		t.Errorf("ref after decode = %+v, want %+v", gotRef, ref.Ref)
	}
}

// TestCacheKeyDistinguishesRef pins cache identity: the registry name and
// parameters enter the key (two refs resolving to the same fields under
// different names must not share cache rows), and the key is
// deterministic across calls despite the parameter map.
func TestCacheKeyDistinguishesRef(t *testing.T) {
	ref, err := NewPolicy("past-peg-peg", map[string]float64{"lo_percent": 90, "hi_percent": 97})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if got := ref.cacheString(); got != ref.cacheString() {
			t.Fatalf("cacheString nondeterministic: %q", got)
		}
	}
	if ref.cacheString() == stripRef(ref).cacheString() {
		t.Error("ref and flat cache identities collide")
	}
	other := ref
	other.Ref = &PolicyRef{Name: "other-name", Params: ref.Ref.Params}
	if ref.cacheString() == other.cacheString() {
		t.Error("two registry names share a cache identity")
	}
}

// TestRegisteredOnlyPolicyThroughSweep is the acceptance path for the open
// registry: a policy family that exists only via RegisterPolicy — never a
// clocksched.go edit — runs through Sweep and
// produces exactly the measurements of the equivalent hand-built fields.
func TestRegisteredOnlyPolicyThroughSweep(t *testing.T) {
	registerForTest(t, "test-past-tight", func(ps Params) (Policy, error) {
		p := pastPegPegFlat
		p.LoPercent = ps.Int("lo_percent", 85)
		p.HiPercent = ps.Int("hi_percent", 95)
		return p, nil
	})
	p, err := NewPolicy("test-past-tight", map[string]float64{"lo_percent": 88})
	if err != nil {
		t.Fatal(err)
	}

	grid := func(pol Policy) SweepConfig {
		return SweepConfig{
			Workloads: []Workload{RectWave},
			Policies:  []Policy{pol},
			Seeds:     []uint64{1, 2, 3},
			Duration:  time.Second,
		}
	}
	got, err := Sweep(context.Background(), grid(p))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Sweep(context.Background(), grid(stripRef(p)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("cell counts: %d vs %d", len(got.Cells), len(want.Cells))
	}
	for i := range got.Cells {
		if !reflect.DeepEqual(got.Cells[i].Result, want.Cells[i].Result) {
			t.Errorf("cell %d: registry-built policy diverges from hand-built fields", i)
		}
	}
}
