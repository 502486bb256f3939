package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c_total") != c {
		t.Error("re-lookup returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v, want 1.5", g.Value())
	}
	g.SetMax(1.0)
	if g.Value() != 1.5 {
		t.Error("SetMax lowered the gauge")
	}
	g.SetMax(3)
	if g.Value() != 3 {
		t.Error("SetMax did not raise the gauge")
	}

	h := r.Histogram("h", []float64{1, 2})
	for _, x := range []float64{0.5, 1.5, 5, math.NaN()} {
		h.Observe(x)
	}
	if h.Count() != 3 {
		t.Errorf("histogram count = %d, want 3 (NaN ignored)", h.Count())
	}
	if h.Sum() != 7 {
		t.Errorf("histogram sum = %v, want 7", h.Sum())
	}
}

// TestNilRegistryIsInert covers the whole disabled surface: lookups on a nil
// registry return nil instruments whose methods do nothing.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", UtilBuckets).Observe(0.5)
	r.Timer("t").Start().Stop()
	r.Emit("event", F("k", "v"))
	if ev := r.Events(); ev != nil {
		t.Errorf("nil registry buffered events: %v", ev)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
}

// TestDisabledPathAllocations is the no-op mode allocation check: with
// telemetry disabled (nil registry, hence nil instruments) the hot-path
// operations must not allocate at all.
func TestDisabledPathAllocations(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", UtilBuckets)
	tm := r.Timer("t")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(1)
		h.Observe(0.5)
		tm.Start().Stop()
	}); n != 0 {
		t.Errorf("disabled path allocates %v per op, want 0", n)
	}
}

// TestConcurrentInstruments hammers one registry from many goroutines the
// way parallel sweep workers do; run under -race this is the shared-counter
// soundness proof, and the totals must still be exact.
func TestConcurrentInstruments(t *testing.T) {
	const workers, per = 8, 2000
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total")
			g := r.Gauge("busy")
			h := r.Histogram("lat", SecondsBuckets)
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.001)
				if i%100 == 0 {
					r.Emit("tick", F("i", fmt.Sprint(i)))
				}
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("shared_total").Value(); v != workers*per {
		t.Errorf("shared counter = %d, want %d", v, workers*per)
	}
	if v := r.Gauge("busy").Value(); v != 0 {
		t.Errorf("gauge = %v, want 0", v)
	}
	if c := r.Histogram("lat", SecondsBuckets).Count(); c != workers*per {
		t.Errorf("histogram count = %d, want %d", c, workers*per)
	}
	if want := workers * (per / 100); len(r.Events()) != want {
		t.Errorf("event ring holds %d, want %d", len(r.Events()), want)
	}
}

func TestEventRingKeepsNewest(t *testing.T) {
	r := New()
	for i := 0; i < EventCap+10; i++ {
		r.Emit("e", F("i", fmt.Sprint(i)))
	}
	ev := r.Events()
	if len(ev) != EventCap {
		t.Fatalf("ring holds %d", len(ev))
	}
	if ev[0].Seq != 11 || ev[len(ev)-1].Seq != EventCap+10 {
		t.Errorf("ring kept seqs %d..%d, want 11..%d", ev[0].Seq, ev[len(ev)-1].Seq, EventCap+10)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq != ev[i-1].Seq+1 {
			t.Fatalf("ring out of order at %d", i)
		}
	}
}

// TestPrometheusGolden pins the text exposition format exactly: sorted
// names, one TYPE line per base name, cumulative buckets with merged le
// labels.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	r.Counter(`cells_total{result="cached"}`).Add(2)
	r.Counter(`cells_total{result="run"}`).Add(5)
	r.Gauge("busy").Set(3)
	h := r.Histogram("util", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE cells_total counter`,
		`cells_total{result="cached"} 2`,
		`cells_total{result="run"} 5`,
		`# TYPE busy gauge`,
		`busy 3`,
		`# TYPE util histogram`,
		`util_bucket{le="0.5"} 1`,
		`util_bucket{le="1"} 2`,
		`util_bucket{le="+Inf"} 3`,
		`util_sum 3`,
		`util_count 3`,
	}, "\n") + "\n"
	if got := b.String(); got != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", got, want)
	}
}

// TestPrometheusScopedMerge pins the multi-registry export: every scope's
// label is injected into its series (including inside existing label
// blocks and histogram le labels), and a base name exported by several
// scopes still gets exactly one TYPE line.
func TestPrometheusScopedMerge(t *testing.T) {
	mk := func(cached, run int64, obs float64) *Registry {
		r := New()
		r.Counter(`cells_total{result="cached"}`).Add(cached)
		r.Counter(`cells_total{result="run"}`).Add(run)
		r.Histogram("util", []float64{1}).Observe(obs)
		return r
	}
	a, b := mk(1, 2, 0.5), mk(3, 4, 2)
	shared := New()
	shared.Gauge("jobs_active").Set(2)

	var out bytes.Buffer
	err := WritePrometheusAll(&out,
		Scoped{Reg: shared},
		Scoped{Labels: `job="a"`, Reg: a},
		Scoped{Labels: `job="b"`, Reg: b},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE cells_total counter`,
		`cells_total{result="cached",job="a"} 1`,
		`cells_total{result="cached",job="b"} 3`,
		`cells_total{result="run",job="a"} 2`,
		`cells_total{result="run",job="b"} 4`,
		`# TYPE jobs_active gauge`,
		`jobs_active 2`,
		`# TYPE util histogram`,
		`util_bucket{job="a",le="1"} 1`,
		`util_bucket{job="a",le="+Inf"} 1`,
		`util_sum{job="a"} 0.5`,
		`util_count{job="a"} 1`,
		`util_bucket{job="b",le="1"} 0`,
		`util_bucket{job="b",le="+Inf"} 1`,
		`util_sum{job="b"} 2`,
		`util_count{job="b"} 1`,
	}, "\n") + "\n"
	if got := out.String(); got != want {
		t.Errorf("scoped output:\n%s\nwant:\n%s", got, want)
	}
}

func TestJSONSnapshotRoundTrips(t *testing.T) {
	r := New()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(1.5)
	r.Histogram("h", []float64{1}).Observe(0.5)
	r.Emit("run.start", F("workload", "mpeg"))

	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["c"] != 7 || s.Gauges["g"] != 1.5 {
		t.Errorf("snapshot %+v", s)
	}
	if h := s.Histograms["h"]; h.Count != 1 || h.Sum != 0.5 {
		t.Errorf("histogram snapshot %+v", h)
	}
	if len(s.Events) != 1 || s.Events[0].Name != "run.start" {
		t.Errorf("events %+v", s.Events)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := New()
	r.Counter(MKernelQuanta).Add(42)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, MKernelQuanta+" 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"`+MKernelQuanta+`": 42`) {
		t.Errorf("/metrics.json missing counter:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "telemetry") {
		t.Errorf("/debug/vars missing telemetry var:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ unexpected:\n%s", body)
	}
}

func TestServerShutdownGraceful(t *testing.T) {
	r := New()
	r.Counter("x").Inc()
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The listener is gone: a new scrape must fail.
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Error("server still accepting after Shutdown")
	}
}
