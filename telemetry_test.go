package clocksched

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// A run with no telemetry attached must still publish the deterministic
// per-run summary on the Result.
func TestRunTelemetrySummary(t *testing.T) {
	res, err := Run(Config{
		Workload: MPEG,
		Policy:   mustPolicy(t, "past-peg-peg", nil),
		Seed:     1,
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := res.Telemetry
	if rt.EventsFired == 0 {
		t.Error("EventsFired = 0, want > 0")
	}
	// 2 s of 10 ms quanta.
	if rt.Quanta != 200 {
		t.Errorf("Quanta = %d, want 200", rt.Quanta)
	}
	// The default DAQ samples at 5 kHz.
	if rt.DAQSamples != 10000 {
		t.Errorf("DAQSamples = %d, want 10000", rt.DAQSamples)
	}
	if rt.ScaleUps+rt.ScaleDowns == 0 {
		t.Error("PAST on MPEG never scaled; want some speed decisions")
	}
	if got := rt.ScaleUps + rt.ScaleDowns; got < res.ClockChanges {
		t.Errorf("scale decisions %d < applied clock changes %d", got, res.ClockChanges)
	}

	// Constant policies make no scale decisions.
	res2, err := Run(Config{Workload: MPEG, Seed: 1, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Telemetry.ScaleUps != 0 || res2.Telemetry.ScaleDowns != 0 {
		t.Errorf("constant policy ScaleUps/Downs = %d/%d, want 0/0",
			res2.Telemetry.ScaleUps, res2.Telemetry.ScaleDowns)
	}
}

// Attaching a live registry must not perturb the measurement: the Result,
// including its canonical encoding, is byte-identical with and without.
func TestTelemetryIsObservational(t *testing.T) {
	cfg := Config{
		Workload: MPEG,
		Policy:   mustPolicy(t, "past-peg-peg", nil),
		Seed:     7,
		Duration: 2 * time.Second,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	cfg.Telemetry = tel
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := encodeResult(plain)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := encodeResult(instrumented)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, ib) {
		t.Error("instrumented run's Result differs from the plain run's")
	}

	// And the registry actually saw the run.
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kernel_quanta_total 200") {
		t.Errorf("registry missed the run; /metrics:\n%s", buf.String())
	}
}

// The Telemetry field must not split the sweep cache: equal cells hash
// equal whether or not a registry is attached.
func TestTelemetryExcludedFromCacheKey(t *testing.T) {
	base := Config{Workload: MPEG, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: time.Second}
	withTel := base
	withTel.Telemetry = NewTelemetry()
	if cacheKey(base) != cacheKey(withTel) {
		t.Error("attaching Telemetry changed the cache key")
	}
}

// Nil receivers are inert across the public wrapper.
func TestNilTelemetryWrapper(t *testing.T) {
	var tel *Telemetry
	if tel.Addr() != "" {
		t.Error("nil Telemetry has an address")
	}
	if err := tel.Close(); err != nil {
		t.Error("nil Close errored:", err)
	}
	if err := tel.WritePrometheus(io.Discard); err != nil {
		t.Error("nil WritePrometheus errored:", err)
	}
	if err := tel.WriteJSON(io.Discard); err != nil {
		t.Error("nil WriteJSON errored:", err)
	}
	if tel.registry() != nil {
		t.Error("nil Telemetry unwraps to a live registry")
	}
}

// End-to-end: a parallel sweep under a served registry exposes pool
// occupancy, cache traffic, policy decisions, and utilization histograms
// over HTTP, and the SweepResult carries the pool summary.
func TestSweepTelemetryServed(t *testing.T) {
	tel := NewTelemetry()
	addr, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	if tel.Addr() != addr {
		t.Errorf("Addr() = %q, want %q", tel.Addr(), addr)
	}
	if _, err := tel.Serve("127.0.0.1:0"); err == nil {
		t.Error("second Serve did not error")
	}

	cache, err := NewSweepCache(16, "")
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() *SweepResult {
		res, err := Sweep(context.Background(), SweepConfig{
			Workloads: []Workload{MPEG},
			Policies:  []Policy{mustPolicy(t, "past-peg-peg", nil)},
			Seeds:     []uint64{1, 2, 3},
			Duration:  time.Second,
			Workers:   2,
			Cache:     cache,
			Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := sweep()
	if st := first.Telemetry; st.Workers != 2 || st.Ran != 3 || st.Cached != 0 ||
		st.Failed != 0 || st.PeakBusy < 1 || st.PeakBusy > 2 {
		t.Errorf("first sweep pool telemetry = %+v", st)
	}
	second := sweep()
	if st := second.Telemetry; st.Ran != 0 || st.Cached != 3 {
		t.Errorf("second sweep pool telemetry = %+v (want all cached)", st)
	}
	// Cached replays return the same results.
	for i := range first.Cells {
		if !reflect.DeepEqual(first.Cells[i].Result, second.Cells[i].Result) {
			t.Errorf("cell %d: cached result differs from simulated", i)
		}
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`sweep_cells_total{result="run"} 3`,
		`sweep_cells_total{result="cached"} 3`,
		"sweep_cache_hits_total 3",
		"sweep_cache_misses_total 3",
		"sweep_workers_busy_peak",
		`policy_decisions_total{decision=`,
		"kernel_quantum_util_bucket",
		"kernel_quanta_total 300",
		"daq_captures_total 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/metrics.json", addr))
	if err != nil {
		t.Fatal(err)
	}
	jbody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jbody), `"run.done"`) {
		t.Error("/metrics.json missing run.done events")
	}
}

// NewTelemetry pre-registers the stable series, so a scrape taken before
// any run still exposes the dashboard's metric names.
func TestTelemetryPreRegistered(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTelemetry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"sweep_workers_busy 0",
		`sweep_cells_total{result="run"} 0`,
		"sweep_cache_hits_total 0",
		`policy_decisions_total{decision="up"} 0`,
		"kernel_quantum_util_count 0",
		"sweep_cell_seconds_count 0",
		"daq_samples_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("pre-registered /metrics missing %q; got:\n%s", want, text)
		}
	}
}

// TestTelemetryServeShutdown drains the public HTTP listener gracefully.
func TestTelemetryServeShutdown(t *testing.T) {
	tel := NewTelemetry()
	addr, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := tel.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("listener alive after Shutdown")
	}
	// Serve again after shutdown: the Telemetry is reusable.
	addr2, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	if addr2 == "" {
		t.Error("re-serve returned empty address")
	}
	// Nil receiver stays a no-op.
	var nilTel *Telemetry
	if err := nilTel.Shutdown(ctx); err != nil {
		t.Error(err)
	}
}
