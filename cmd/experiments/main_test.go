package main

import (
	"slices"
	"testing"

	"clocksched/internal/expt"
	"clocksched/internal/policy"
)

// TestCatalogueOrder pins the experiment catalogue that -list prints and
// the full run executes: the 22 paper and extension entries, then the zoo
// and fleet experiments, every entry complete.
func TestCatalogueOrder(t *testing.T) {
	want := []string{
		"figure3", "figure4", "figure5", "table1", "figure6", "figure7",
		"figure8", "figure9", "table2", "table3", "battery", "transitions",
		"overhead", "deadline", "martin", "pering", "playback", "sensitivity",
		"exhaustion", "sa2", "dvs", "weiser", "zoo", "fleet",
	}
	var got []string
	for _, e := range catalogue() {
		if e.Paper == "" || e.Run == nil {
			t.Errorf("incomplete experiment %q", e.Name)
		}
		got = append(got, e.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("catalogue = %v\nwant        %v", got, want)
	}
	for _, name := range []string{"table2", "zoo", "fleet"} {
		if _, ok := expt.Find(catalogue(), name); !ok {
			t.Errorf("-only %s would not find its experiment", name)
		}
	}
}

// TestCacheFollowsBestBounds reruns Table 2 over a cell cache after the
// paper's best thresholds change: the cached cells of the old thresholds
// must not be served, so the rerun's rows equal an uncached run's under
// the new ones. A cell's cache key is its whole configuration, thresholds
// included.
func TestCacheFollowsBestBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Table 2 grid three times")
	}
	o := options{outDir: t.TempDir(), only: "table2", seed: 1, workers: 2}
	before := runArtifact(t, o, "table2.txt")
	saved := policy.BestBounds
	t.Cleanup(func() { policy.BestBounds = saved })
	policy.BestBounds = policy.Bounds{Lo: 5000, Hi: 9800}
	rerun := runArtifact(t, o, "table2.txt")
	fresh := runArtifact(t, options{outDir: t.TempDir(), only: "table2", seed: 1, workers: 2, nocache: true}, "table2.txt")
	if fresh == before {
		t.Fatalf("new thresholds left Table 2 unchanged:\n%s", fresh)
	}
	if rerun != fresh {
		t.Errorf("cached rerun differs from an uncached run under the new thresholds:\n--- rerun\n%s\n--- uncached\n%s", rerun, fresh)
	}
}
