// The fleet experiment's test lives in an external test package: the
// experiment is one of internal/grids' sweeps, and grids imports fleet.
package fleet_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clocksched"
	"clocksched/internal/expt"
	"clocksched/internal/grids"
)

// TestExperimentSharesGridState runs the fleet experiment twice over the
// one cache and journal a cmd/experiments run hands every experiment, then
// Table 2 over the same state. The fleet opens nothing of its own, its
// second run replays every cell, and the grid reads its cells unharmed.
func TestExperimentSharesGridState(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet experiment twice and the Table 2 grid")
	}
	t.Setenv("CLOCKSCHED_FLEET_DEVICES", "40")
	dir := t.TempDir()
	cache, err := clocksched.NewSweepCache(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	env := expt.Env{Ctx: context.Background(), Seed: 1, Workers: 2, Cache: cache, Journal: filepath.Join(dir, "sweep.wal")}

	// run returns fleet.txt and the first progress call's counts.
	run := func() (text string, done, total int) {
		e := env
		e.Progress = func(d, n int) {
			if total == 0 {
				done, total = d, n
			}
		}
		_, artifacts, err := experiment(t, "fleet").Run(e)
		if err != nil || len(artifacts) != 1 {
			t.Fatalf("fleet experiment: %d artifacts, err %v", len(artifacts), err)
		}
		return artifacts[0].Content, done, total
	}
	first, _, total := run()
	var names []string
	if top, err := os.ReadDir(dir); err == nil {
		for _, e := range top {
			names = append(names, e.Name())
		}
	}
	if want := []string{"cache", "sweep.wal"}; !reflect.DeepEqual(names, want) {
		t.Errorf("output directory holds %v, want only %v", names, want)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "cache")); err != nil || total == 0 || len(entries) != total {
		t.Errorf("shared cache holds %d entries after a %d-cell fleet (%v)", len(entries), total, err)
	}

	second, done, total2 := run()
	if second != first {
		t.Errorf("fleet.txt differs between runs:\n%s\n---\n%s", first, second)
	}
	if done != total || total2 != total {
		t.Errorf("second run's first progress call = %d/%d, want %d/%d", done, total2, total, total)
	}

	table2 := experiment(t, "table2")
	text, _, err := table2.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := table2.Run(expt.DefaultEnv(1))
	if err != nil || text != fresh {
		t.Errorf("table2 over the shared state differs from a fresh run (%v):\n%s", err, text)
	}
}

// experiment returns the named sweep-shaped experiment's catalogue entry.
func experiment(t *testing.T, name string) expt.Experiment {
	t.Helper()
	e, ok := grids.Find(name)
	if !ok {
		t.Fatalf("no sweep-shaped experiment %q", name)
	}
	return e.Local()
}
