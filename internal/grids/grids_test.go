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
