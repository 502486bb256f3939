package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONListsTheMetrics checks that BENCHMARK.json describes
// exactly the metrics the runs report, with the same units and directions.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		list      string
		got, want []metricDef
	}{
		{"end_to_end", spec.EndToEnd, endToEnd},
		{"per_layer", spec.PerLayer, perLayer},
	} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s lists %d metrics, the benchmark reports %d", tc.list, len(tc.got), len(tc.want))
		}
		for i, m := range tc.want {
			g := tc.got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d] = %s %s %s, want %s %s %s", tc.list, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
		}
	}
	// A metric that does not repeat within 10% is dropped, not given a wider
	// bound. Set-up time alone, whose bound catches work moved out of the
	// rounds, has the largest bound, up to the 25% the file format allows.
	for _, m := range spec.EndToEnd {
		limit := 0.1
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %g outside (0, %g]", m.Name, m.Bound, limit)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the output matches the committed default-seed digest and
// that every named metric is reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var untraced string
			for _, traced := range []bool{false, true} {
				rec, err := run(context.Background(), options{
					workload: w, seed: defaultSeed, trace: traced, workdir: t.TempDir(), small: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("traced=%v: correct %v, %d of %d failed, output %s, problems %q",
						traced, rec.Correct, rec.Failed, rec.Attempted, rec.Digest, rec.Problems)
				}
				want := endToEnd
				if traced {
					want = perLayer
					if rec.Digest != untraced {
						t.Errorf("traced output %s differs from untraced %s", rec.Digest, untraced)
					}
				}
				untraced = rec.Digest
				res := rec.result()
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: metric %s missing", traced, m.Name)
					case v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("traced=%v: %s = %g %s", traced, m.Name, v.Value, v.Unit)
					case !traced && v.Value <= 0:
						t.Errorf("%s = %g, want a positive measurement", m.Name, v.Value)
					}
				}
			}
		})
	}
}

// TestTraceFileWritten checks that a traced run leaves its spans behind.
func TestTraceFileWritten(t *testing.T) {
	dir := t.TempDir()
	if _, err := run(context.Background(), options{
		workload: findWorkload("table2-serial"), seed: 3, trace: true, workdir: dir, small: true,
	}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "trace-table2-serial-seed3.json")); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file: %v", err)
	}
}
