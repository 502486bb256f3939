package clocksched

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// durableGrid is the grid the kill-and-resume tests run: one policy over
// twelve seeds of the 2-second rect wave — small cells, so a sweep makes
// visible progress quickly, but enough of them that a kill always lands
// mid-run.
func durableGrid(tb testing.TB) SweepConfig {
	tb.Helper()
	seeds := make([]uint64, 12)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return SweepConfig{
		Workloads: []Workload{RectWave},
		Policies:  []Policy{mustPolicy(tb, "past-peg-peg", nil)},
		Seeds:     seeds,
		Duration:  2 * time.Second,
	}
}

// TestSweepKillAndResumeChild is the subprocess half of the kill-and-resume
// test: it runs the durable grid with a journal, printing one line per
// completed cell, until the parent SIGKILLs it. It skips unless the parent
// set the work-directory environment variable.
func TestSweepKillAndResumeChild(t *testing.T) {
	dir := os.Getenv("CLOCKSCHED_KILL_CHILD_DIR")
	if dir == "" {
		t.Skip("subprocess helper; run via TestSweepKillAndResume")
	}
	cache, err := NewSweepCache(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := durableGrid(t)
	cfg.Workers = 1
	cfg.Cache = cache
	cfg.Journal = filepath.Join(dir, "sweep.wal")
	cfg.Progress = func(done, total int) {
		fmt.Printf("cell %d/%d\n", done, total)
		// Throttle so the parent's SIGKILL always lands mid-sweep.
		time.Sleep(100 * time.Millisecond)
	}
	if _, err := Sweep(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// Unreachable when the parent kills us, by design.
}

// TestSweepKillAndResume is the durability acceptance test: a sweep is
// SIGKILLed mid-run — no deferred cleanup, no graceful unwind — and a second
// process pointed at the same journal and cache with Resume set produces a
// SweepResult byte-identical to an uninterrupted sweep, replaying the
// committed cells instead of re-simulating them.
func TestSweepKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()

	child := exec.Command(os.Args[0], "-test.run=TestSweepKillAndResumeChild$", "-test.v")
	child.Env = append(os.Environ(), "CLOCKSCHED_KILL_CHILD_DIR="+dir)
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}

	// Let three cells complete — each line is printed only after the cell's
	// journal record is fsynced — then kill without warning.
	sc := bufio.NewScanner(stdout)
	lines := 0
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "cell ") {
			lines++
			if lines == 3 {
				break
			}
		}
	}
	if lines < 3 {
		t.Fatalf("child exited after %d cells: %v", lines, child.Wait())
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err = child.Wait()
	if ws, ok := child.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() {
		t.Fatalf("child did not die of the signal: err=%v state=%v", err, child.ProcessState)
	}

	// The uninterrupted reference, computed fresh in this process.
	ref, err := Sweep(context.Background(), durableGrid(t))
	if err != nil {
		t.Fatal(err)
	}

	// Resume over the dead process's journal and cache.
	cache, err := NewSweepCache(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	cfg := durableGrid(t)
	cfg.Cache = cache
	cfg.Journal = filepath.Join(dir, "sweep.wal")
	cfg.Resume = true
	cfg.Telemetry = tel
	res, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Byte identity, cell by cell, under the canonical encoding.
	if len(res.Cells) != len(ref.Cells) {
		t.Fatalf("%d cells resumed, want %d", len(res.Cells), len(ref.Cells))
	}
	for i := range ref.Cells {
		want, err := encodeResult(ref.Cells[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeResult(res.Cells[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("cell %d diverged after kill+resume", i)
		}
	}

	// The kill landed after ≥3 fsynced commits, so the resume must have
	// replayed at least those cells rather than re-simulating them.
	if res.Telemetry.Replayed < 3 {
		t.Errorf("resume replayed %d cells, want >= 3", res.Telemetry.Replayed)
	}
	if res.Telemetry.Replayed+res.Telemetry.Ran != len(res.Cells) {
		t.Errorf("replayed %d + ran %d != %d cells (cached %d)",
			res.Telemetry.Replayed, res.Telemetry.Ran, len(res.Cells), res.Telemetry.Cached)
	}
	var prom bytes.Buffer
	if err := tel.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `sweep_cells_total{result="replayed"}`) ||
		strings.Contains(prom.String(), `sweep_cells_total{result="replayed"} 0`) {
		t.Error("replay not visible on the telemetry registry")
	}
}

// TestSweepRetriesInjectedFaults drives a grid under a small cell-abort
// probability with a retry budget: every cell must eventually succeed, the
// retries must be visible in the sweep telemetry, and — because abort
// schedules are seeded per (seed, attempt) — the whole recovery must be
// reproducible run over run, with results identical to a fault-free sweep.
func TestSweepRetriesInjectedFaults(t *testing.T) {
	mk := func() SweepConfig {
		cfg := durableGrid(t)
		// Per quantum boundary: a 2s cell rolls ~200 times, so 0.001 is
		// roughly a 20% abort chance per attempt — aborts happen, budgets
		// hold.
		cfg.Faults = &FaultPlan{CellAbortProb: 0.001}
		cfg.Retries = 8
		cfg.RetryBase = time.Millisecond
		return cfg
	}
	res1, err := Sweep(context.Background(), mk())
	if err != nil {
		t.Fatalf("retries exhausted: %v", err)
	}
	if res1.Telemetry.Retried == 0 {
		t.Fatal("no cell ever aborted: the injection parameters test nothing")
	}
	for i, c := range res1.Cells {
		if c.Err != nil {
			t.Fatalf("cell %d failed despite retry budget: %v", i, c.Err)
		}
	}

	// Reproducible: the same sweep retries the same cells the same number of
	// times and lands on the same results.
	res2, err := Sweep(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Telemetry.Retried != res2.Telemetry.Retried {
		t.Errorf("retry schedule not reproducible: %d vs %d retries",
			res1.Telemetry.Retried, res2.Telemetry.Retried)
	}

	// Recovered results equal the fault-free sweep's: the abort stream is
	// separate from every other RNG stream, so a surviving attempt is
	// bit-identical to a run that was never at risk.
	clean, err := Sweep(context.Background(), durableGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Cells {
		if clean.Cells[i].Result.EnergyJoules != res1.Cells[i].Result.EnergyJoules {
			t.Errorf("cell %d: retried energy %v != fault-free %v",
				i, res1.Cells[i].Result.EnergyJoules, clean.Cells[i].Result.EnergyJoules)
		}
	}
}

// TestSweepDegradesToStructuredErrors pins graceful degradation: with a
// certain abort every attempt and the budget exhausted, the sweep still
// completes every cell and reports the failures as structured, grid-ordered
// cell errors rather than dying on the first one.
func TestSweepDegradesToStructuredErrors(t *testing.T) {
	cfg := durableGrid(t)
	cfg.Seeds = cfg.Seeds[:4]
	cfg.Faults = &FaultPlan{CellAbortProb: 1}
	cfg.Retries = 1
	cfg.RetryBase = time.Millisecond
	res, err := Sweep(context.Background(), cfg)
	if err == nil {
		t.Fatal("certain aborts produced no error")
	}
	if res == nil {
		t.Fatal("collect-all sweep returned no partial result")
	}
	errs := res.Errors()
	if len(errs) != 4 {
		t.Fatalf("%d structured errors, want 4", len(errs))
	}
	for i, ce := range errs {
		if ce.Index != i {
			t.Errorf("error %d carries index %d: not grid-ordered", i, ce.Index)
		}
		if !ce.Transient || ce.TimedOut || ce.Skipped {
			t.Errorf("cell %d classified %+v, want transient", i, ce)
		}
		if ce.Attempts != 2 {
			t.Errorf("cell %d ran %d attempts, want 1+1 retry", i, ce.Attempts)
		}
		if ce.Workload != string(RectWave) || ce.Seed != uint64(i+1) {
			t.Errorf("cell %d identity %q/%d", i, ce.Workload, ce.Seed)
		}
	}
}

// TestSweepDuplicateKeyNotReplayed pins what Replayed means: committed by a
// previous run's journal. A fresh durable sweep whose second cell repeats
// the first's key serves it from the cache, but nothing was replayed.
func TestSweepDuplicateKeyNotReplayed(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewSweepCache(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	c := Config{Workload: RectWave, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: 2 * time.Second}
	res, err := Sweep(context.Background(), SweepConfig{
		Cells:   []Config{c, c},
		Workers: 1,
		Cache:   cache,
		Journal: filepath.Join(dir, "sweep.wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tel := res.Telemetry; tel.Ran != 1 || tel.Cached != 1 || tel.Replayed != 0 {
		t.Errorf("telemetry = %+v, want Ran 1, Cached 1, Replayed 0", tel)
	}
	if !res.Cells[1].Cached || res.Cells[1].Replayed {
		t.Errorf("duplicate cell: Cached %v, Replayed %v; want a plain cache hit",
			res.Cells[1].Cached, res.Cells[1].Replayed)
	}
}

// TestSweepDurabilityValidation covers the configuration cross-checks.
func TestSweepDurabilityValidation(t *testing.T) {
	base := durableGrid(t)

	noCache := base
	noCache.Journal = filepath.Join(t.TempDir(), "w.wal")
	if _, err := Sweep(context.Background(), noCache); err == nil ||
		!strings.Contains(err.Error(), "Journal requires Cache") {
		t.Errorf("journal without cache: %v", err)
	}

	noJournal := base
	noJournal.Resume = true
	if _, err := Sweep(context.Background(), noJournal); err == nil ||
		!strings.Contains(err.Error(), "Resume requires Journal") {
		t.Errorf("resume without journal: %v", err)
	}

	negatives := base
	negatives.CellTimeout = -time.Second
	negatives.Retries = -1
	negatives.RetryBase = -time.Millisecond
	_, err := Sweep(context.Background(), negatives)
	for _, want := range []string{"CellTimeout", "Retries", "RetryBase"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("negative %s accepted: %v", want, err)
		}
	}
}
