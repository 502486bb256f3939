package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"clocksched"
)

// TestRegisteredPolicyThroughService is the registry acceptance path over
// the wire: a policy that exists only via RegisterPolicy travels inside a
// JSON SweepSpec in its {"name", "params"} form, is rebuilt by the
// receiving daemon's registry at decode, and the stored result bytes are
// exactly what an uninterrupted local Sweep of the same grid encodes.
func TestRegisteredPolicyThroughService(t *testing.T) {
	err := clocksched.RegisterPolicy("svc-test-past", func(ps clocksched.Params) (clocksched.Policy, error) {
		return clocksched.Policy{
			Up:        clocksched.Peg,
			Down:      clocksched.Peg,
			LoPercent: ps.Int("lo_percent", 93),
			HiPercent: ps.Int("hi_percent", 98),
		}, nil
	})
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	pol, err := clocksched.NewPolicy("svc-test-past", map[string]float64{
		"lo_percent": 89, "hi_percent": 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid := clocksched.SweepConfig{
		Workloads: []clocksched.Workload{clocksched.RectWave},
		Policies:  []clocksched.Policy{pol},
		Seeds:     []uint64{1, 2, 3},
		Duration:  2 * time.Second,
	}
	spec := clocksched.NewSweepSpec(grid)

	// The spec must actually cross the wire in the registry form: force a
	// JSON round trip and check the compact encoding is what travels.
	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wire), `"name":"svc-test-past"`) {
		t.Fatalf("spec JSON does not use the registry wire form: %s", wire)
	}
	var shipped clocksched.SweepSpec
	if err := json.Unmarshal(wire, &shipped); err != nil {
		t.Fatal(err)
	}

	_, c := newTestServer(t, Config{Workers: 2, MaxActiveJobs: 1})
	ctx := context.Background()
	st, err := c.Submit(ctx, shipped)
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Done != 3 {
		t.Fatalf("final status %+v", st)
	}
	got, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := clocksched.Sweep(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clocksched.EncodeSweepResult(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("remote result (%d bytes) != local encode (%d bytes) for a registry-only policy",
			len(got), len(want))
	}
}

// TestZooPoliciesThroughService proves ISSUE 8's wire-form criterion: the
// deadline-feasible family (OA, AVR, BKP) built purely from the registry's
// {"name", "params"} form survives the JSON round trip, is rebuilt by the
// daemon at admission, and the stored result bytes are exactly what a local
// Sweep of the same grid encodes.
func TestZooPoliciesThroughService(t *testing.T) {
	var pols []clocksched.Policy
	for _, ref := range []clocksched.PolicyRef{
		{Name: "oa"},
		{Name: "avr", Params: map[string]float64{"slack_quanta": 4}},
		{Name: "bkp", Params: map[string]float64{"voltage_scale": 1}},
	} {
		p, err := ref.Build()
		if err != nil {
			t.Fatal(err)
		}
		pols = append(pols, p)
	}
	grid := clocksched.SweepConfig{
		Workloads: []clocksched.Workload{clocksched.RectWave},
		Policies:  pols,
		Seeds:     []uint64{1, 2},
		Duration:  2 * time.Second,
	}
	spec := clocksched.NewSweepSpec(grid)
	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"oa"`, `"name":"avr"`, `"name":"bkp"`} {
		if !strings.Contains(string(wire), want) {
			t.Fatalf("spec JSON lacks %s: %s", want, wire)
		}
	}
	var shipped clocksched.SweepSpec
	if err := json.Unmarshal(wire, &shipped); err != nil {
		t.Fatal(err)
	}

	_, c := newTestServer(t, Config{Workers: 2, MaxActiveJobs: 1})
	ctx := context.Background()
	st, err := c.Submit(ctx, shipped)
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Done != 6 {
		t.Fatalf("final status %+v", st)
	}
	got, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := clocksched.Sweep(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clocksched.EncodeSweepResult(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("remote result (%d bytes) != local encode (%d bytes) for zoo policies",
			len(got), len(want))
	}
}

// TestUnknownPolicyRejectedAtAdmission pins the failure mode: a spec
// naming a policy the daemon's registry lacks is refused at submit, not
// accepted and failed mid-sweep.
func TestUnknownPolicyRejectedAtAdmission(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxActiveJobs: 1})
	spec := testSpec(1)
	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	wire = bytes.Replace(wire,
		[]byte(`"policies":[`),
		[]byte(`"policies":[{"name":"not-registered-anywhere"},`), 1)
	req, err := http.NewRequest("POST", c.Base+"/v1/jobs", bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Fatalf("spec with unregistered policy admitted: %s", resp.Status)
	}
}
