package grids

import (
	"testing"

	"clocksched"
	"clocksched/internal/expt"
)

// TestCatalogueHoldsEveryExperiment checks that the catalogue runs each of
// expt.Registry's experiments and each sweep exactly once, the sweeps
// through Run.
func TestCatalogueHoldsEveryExperiment(t *testing.T) {
	seen := map[string]int{}
	for _, e := range Catalogue() {
		seen[e.Name]++
	}
	var want []string
	for _, e := range expt.Registry() {
		want = append(want, e.Name)
	}
	for _, e := range sweeps() {
		if _, dup := expt.Find(expt.Registry(), e.Name); dup {
			t.Errorf("%q is both in expt.Registry and a sweep", e.Name)
		}
		want = append(want, e.Name)
	}
	for _, name := range want {
		if seen[name] != 1 {
			t.Errorf("catalogue runs %q %d times, want once", name, seen[name])
		}
	}
	if len(seen) != len(want) {
		t.Errorf("catalogue holds %d experiments, want %d", len(seen), len(want))
	}
}

// TestRunEmptyConfig checks that a config naming no cell runs nothing:
// Sweep would run the axis grid's one default cell.
func TestRunEmptyConfig(t *testing.T) {
	res, err := Run(expt.DefaultEnv(1), clocksched.SweepConfig{FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 0 {
		t.Errorf("an empty config ran %d cell(s)", len(res.Cells))
	}
	if Empty(clocksched.SweepConfig{Seeds: []uint64{1}}) {
		t.Error("a config with a seed axis reads as empty")
	}
}

// TestFigure8AndWeiserReadZooCells checks that figure8's cell and weiser's
// four are cells of the zoo sweep: after the zoo has run into a cache, both
// are served from it without simulating anything.
func TestFigure8AndWeiserReadZooCells(t *testing.T) {
	cache, err := clocksched.NewSweepCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	env := expt.DefaultEnv(1)
	env.Workers, env.Cache = 2, cache
	zooCfg, err := ZooConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	fig8Cfg, err := Figure8Config(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(env, zooCfg); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]clocksched.SweepConfig{"figure8": fig8Cfg, "weiser": TraceConfig(1)} {
		res, err := Run(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Telemetry.Ran != 0 || res.Telemetry.Cached != cfg.GridSize() {
			t.Errorf("%s: %d of %d cells simulated after the zoo ran, want 0",
				name, res.Telemetry.Ran, cfg.GridSize())
		}
	}
}
