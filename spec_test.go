package clocksched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// specSweepConfig is a small, fault-bearing sweep used by the wire-format
// tests: cheap enough to simulate for real, rich enough to exercise the
// optional spec fields.
func specSweepConfig(tb testing.TB) SweepConfig {
	tb.Helper()
	return SweepConfig{
		Workloads:     []Workload{RectWave, MPEG},
		Policies:      []Policy{mustPolicy(tb, "past-peg-peg", nil), mustPolicy(tb, "constant", nil)},
		Seeds:         []uint64{1, 2},
		Duration:      2 * time.Second,
		DeadlineSlack: 33 * time.Millisecond,
		Watchdog:      &WatchdogConfig{Window: 8, MaxReversals: 6},
		CellTimeout:   30 * time.Second,
		Retries:       1,
		RetryBase:     time.Millisecond,
	}
}

func TestSweepSpecJSONRoundTrip(t *testing.T) {
	cfg := specSweepConfig(t)
	spec := NewSweepSpec(cfg)
	if spec.SimVersion != SimVersion() {
		t.Fatalf("NewSweepSpec stamped %q, want %q", spec.SimVersion, SimVersion())
	}

	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(raw), `"duration":"2s"`) {
		t.Fatalf("durations should marshal as strings, got: %s", raw)
	}

	var back SweepSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	got, err := back.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	if got.GridSize() != cfg.GridSize() {
		t.Fatalf("grid size %d after round trip, want %d", got.GridSize(), cfg.GridSize())
	}

	// The round-tripped config must describe the same measurement: every
	// cell's cache key — which hashes exactly the semantic fields — must
	// survive unchanged.
	wantCells, gotCells := cellsOf(cfg), cellsOf(got)
	for i := range wantCells {
		if cacheKey(gotCells[i]) != cacheKey(wantCells[i]) {
			t.Fatalf("cell %d cache key changed across JSON round trip", i)
		}
	}
}

func TestSweepSpecExplicitCells(t *testing.T) {
	cfg := SweepConfig{
		Cells: []Config{
			{Workload: RectWave, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 7, Duration: time.Second,
				Faults: &FaultPlan{SampleDropProb: 0.25}},
			{Workload: MPEG, Policy: mustPolicy(t, "deadline", map[string]float64{"voltage_scale": 1}), Seed: 9, Duration: 2 * time.Second},
		},
	}
	raw, err := json.Marshal(NewSweepSpec(cfg))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back SweepSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	got, err := back.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	if len(got.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(got.Cells))
	}
	if got.Cells[0].Faults == nil || got.Cells[0].Faults.SampleDropProb != 0.25 {
		t.Fatalf("fault plan lost in round trip: %+v", got.Cells[0].Faults)
	}
	if cacheKey(got.Cells[1]) != cacheKey(cfg.Cells[1]) {
		t.Fatalf("explicit cell cache key changed across round trip")
	}
}

func TestSweepSpecVersionMismatch(t *testing.T) {
	spec := NewSweepSpec(specSweepConfig(t))
	for _, v := range []string{"", "clocksched-sim/0", SimVersion() + "-dev"} {
		spec.SimVersion = v
		if _, err := spec.Config(); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("version %q: got %v, want ErrVersionMismatch", v, err)
		}
	}
}

func TestDurationJSONForms(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{`"33ms"`, 33 * time.Millisecond},
		{`"1m30s"`, 90 * time.Second},
		{`60000000000`, time.Minute},
		{`0`, 0},
	}
	for _, c := range cases {
		var d Duration
		if err := json.Unmarshal([]byte(c.in), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", c.in, err)
		}
		if d.Std() != c.want {
			t.Fatalf("unmarshal %s: got %v, want %v", c.in, d.Std(), c.want)
		}
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"fast"`), &d); err == nil {
		t.Fatal("bad duration string should fail to unmarshal")
	}
}

// TestSweepResultEncodingCanonical runs the same spec twice — once cold,
// once entirely from cache — and requires byte-identical envelopes: the
// encoding must not leak how each cell's result was obtained.
func TestSweepResultEncodingCanonical(t *testing.T) {
	cfg := specSweepConfig(t)
	cfg.Workloads = []Workload{RectWave}
	cfg.Policies = []Policy{mustPolicy(t, "past-peg-peg", nil)}
	cache, err := NewSweepCache(0, "")
	if err != nil {
		t.Fatalf("cache: %v", err)
	}
	cfg.Cache = cache
	cfg.Workers = 2

	cold, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	warm, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	if !warm.Cells[0].Cached {
		t.Fatal("second sweep should hit the cache")
	}

	coldBytes, err := EncodeSweepResult(cold)
	if err != nil {
		t.Fatalf("encode cold: %v", err)
	}
	warmBytes, err := EncodeSweepResult(warm)
	if err != nil {
		t.Fatalf("encode warm: %v", err)
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Fatal("cached sweep encodes differently from cold sweep")
	}

	back, err := DecodeSweepResult(coldBytes)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	reenc, err := EncodeSweepResult(back)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(reenc, coldBytes) {
		t.Fatal("decode/encode round trip changed the envelope bytes")
	}
	if got, want := len(back.Cells), len(cold.Cells); got != want {
		t.Fatalf("decoded %d cells, want %d", got, want)
	}
	for i := range back.Cells {
		if back.Cells[i].Result.EnergyJoules != cold.Cells[i].Result.EnergyJoules {
			t.Fatalf("cell %d energy differs after round trip", i)
		}
	}
}

func TestSweepResultEncodingCarriesErrors(t *testing.T) {
	cfg := SweepConfig{
		Cells: []Config{
			{Workload: RectWave, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: time.Second,
				Faults: &FaultPlan{CellAbortProb: 1}},
		},
	}
	res, err := Sweep(context.Background(), cfg)
	if err == nil {
		t.Fatal("want sweep error from aborting cell")
	}
	if res == nil {
		t.Fatal("partial result expected alongside the error")
	}
	enc, err := EncodeSweepResult(res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeSweepResult(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Cells[0].Err == nil || back.Cells[0].Err.Error() != res.Cells[0].Err.Error() {
		t.Fatalf("cell error lost: got %v, want %v", back.Cells[0].Err, res.Cells[0].Err)
	}
}
