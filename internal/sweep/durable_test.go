package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clocksched/internal/journal"
	"clocksched/internal/telemetry"
)

// flakyErr is a transient failure for retry tests.
type flakyErr struct{ msg string }

func (f flakyErr) Error() string   { return f.msg }
func (f flakyErr) Transient() bool { return true }

// fastRetry keeps test backoffs in the microsecond range.
func fastRetry(max int) RetryPolicy {
	return RetryPolicy{Max: max, Base: time.Microsecond}
}

func TestIsTransient(t *testing.T) {
	if !IsTransient(flakyErr{"x"}) {
		t.Error("flakyErr should be transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", flakyErr{"x"})) {
		t.Error("transience must survive wrapping")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain errors are not transient")
	}
	if IsTransient(nil) {
		t.Error("nil is not transient")
	}
}

// TestRetryDelayDeterministicAndBounded: a delay is a function of (cell,
// attempt) alone, jittered into [d/2, d] of the doubled base capped at
// retryCap, and the schedule is the one the jitter stream has always
// drawn.
func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{Max: 5, Base: 100 * time.Millisecond}
	for cell := 0; cell < 4; cell++ {
		for attempt := 0; attempt < 8; attempt++ {
			d1 := p.delay(cell, attempt)
			d2 := p.delay(cell, attempt)
			if d1 != d2 {
				t.Fatalf("delay(%d,%d) nondeterministic: %v vs %v", cell, attempt, d1, d2)
			}
			grown := retryCap
			if attempt < 6 && p.Base<<uint(attempt) < retryCap {
				grown = p.Base << uint(attempt)
			}
			if d1 < grown/2 || d1 > grown {
				t.Fatalf("delay(%d,%d) = %v outside [%v, %v]", cell, attempt, d1, grown/2, grown)
			}
		}
	}
	// Delays of cells 0 and 1, attempts 0 through 7: the schedule every
	// sweep has drawn, pinned so that rekeying the stream shows.
	for cell, want := range [][]time.Duration{
		{85783712, 116476183, 233366898, 507059140, 1526584465, 2933800001, 3304712077, 4805710677},
		{70106868, 190630103, 242783451, 547351965, 1114590497, 2705642628, 3799803491, 2658676560},
	} {
		for attempt, d := range want {
			if got := p.delay(cell, attempt); got != d {
				t.Errorf("delay(%d,%d) = %d, want %d", cell, attempt, got, d)
			}
		}
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	reg := telemetry.New()
	var calls atomic.Int64
	cells := newIntCells(1, func(_ context.Context, _, attempt int) (int, error) {
		n := calls.Add(1)
		if attempt != int(n-1) {
			t.Errorf("call %d saw attempt %d", n, attempt)
		}
		if n < 3 {
			return 0, flakyErr{"injected"}
		}
		return 42, nil
	})
	stats, err := cells.sweep(context.Background(), Options{
		Workers: 1, Retry: fastRetry(5), Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cells.vals[0] != 42 || cells.outs[0].Attempts != 3 {
		t.Fatalf("outcome %+v value %d, want value 42 after 3 attempts", cells.outs[0], cells.vals[0])
	}
	if stats.Retried != 2 {
		t.Errorf("stats.Retried = %d, want 2", stats.Retried)
	}
	if got := reg.Snapshot().Counters[telemetry.MSweepCellRetries]; got != 2 {
		t.Errorf("%s = %v, want 2", telemetry.MSweepCellRetries, got)
	}
}

func TestRetryBudgetExhaustedDegradesToError(t *testing.T) {
	var calls atomic.Int64
	cells := newIntCells(1, func(context.Context, int, int) (int, error) {
		calls.Add(1)
		return 0, flakyErr{"always"}
	})
	_, err := cells.sweep(context.Background(), Options{Workers: 1, Retry: fastRetry(2)})
	out := cells.outs
	if err == nil {
		t.Fatal("exhausted retries should surface an error")
	}
	if calls.Load() != 3 {
		t.Fatalf("ran %d times, want 1+2 retries", calls.Load())
	}
	if out[0].Attempts != 3 || !IsTransient(out[0].Err) {
		t.Fatalf("outcome %+v: want 3 attempts and a transient chain", out[0])
	}
	if want := "retry budget (2) exhausted"; !contains(out[0].Err.Error(), want) {
		t.Errorf("err %q does not mention %q", out[0].Err, want)
	}
}

func TestNonTransientNotRetried(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("deterministic failure")
	cells := newIntCells(1, func(context.Context, int, int) (int, error) {
		calls.Add(1)
		return 0, boom
	})
	_, err := cells.sweep(context.Background(), Options{Workers: 1, Retry: fastRetry(5)})
	out := cells.outs
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 || out[0].Attempts != 1 {
		t.Fatalf("non-transient failure retried: %d calls, %d attempts", calls.Load(), out[0].Attempts)
	}
}

func TestCellTimeoutIsTerminal(t *testing.T) {
	reg := telemetry.New()
	var calls atomic.Int64
	cells := newIntCells(1, func(ctx context.Context, _, _ int) (int, error) {
		calls.Add(1)
		<-ctx.Done() // a well-behaved cell observes cancellation
		return 0, ctx.Err()
	})
	_, err := cells.sweep(context.Background(), Options{
		Workers:     1,
		CellTimeout: 10 * time.Millisecond,
		Retry:       fastRetry(5), // must NOT rescue a blown deadline
		Telemetry:   reg,
	})
	out := cells.outs
	if err == nil || !errors.Is(out[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err=%v cell=%v, want DeadlineExceeded", err, out[0].Err)
	}
	if calls.Load() != 1 {
		t.Fatalf("deadline failure retried: %d calls", calls.Load())
	}
	if want := "cell deadline"; !contains(out[0].Err.Error(), want) {
		t.Errorf("err %q does not mention %q", out[0].Err, want)
	}
	if got := reg.Snapshot().Counters[telemetry.MSweepCellDeadline]; got != 1 {
		t.Errorf("%s = %v, want 1", telemetry.MSweepCellDeadline, got)
	}
}

func TestJournalCommitAndResumeReplays(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "sweep.wal")
	cacheDir := filepath.Join(dir, "cache")
	reg := telemetry.New()

	mk := func(mustRun bool) *intCells {
		return newIntCells(4, func(_ context.Context, i, _ int) (int, error) {
			if !mustRun {
				t.Errorf("cell %d re-ran after journal commit", i)
			}
			return i * 11, nil
		}).keyed("cell-%d")
	}

	// First run: everything simulates and commits.
	c1, err := NewCache(8, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	jr1, err := OpenCellJournal(wal, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := mk(true)
	s1, err := first.sweep(context.Background(), Options{Workers: 2, Cache: c1, Journal: jr1})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr1.Close(); err != nil {
		t.Fatal(err)
	}
	if s1.Ran != 4 {
		t.Fatalf("first run stats %+v", s1)
	}

	// Second process: resume replays every cell from the journal + cache
	// without running a single cell.
	c2, err := NewCache(8, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	jr2, err := OpenCellJournal(wal, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if jr2.Recovered() != 4 || jr2.Torn() {
		t.Fatalf("recovered %d torn %v, want 4/false", jr2.Recovered(), jr2.Torn())
	}
	second := mk(false)
	s2, err := second.sweep(context.Background(), Options{
		Workers: 2, Cache: c2, Journal: jr2, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range second.outs {
		if !o.Replayed || !o.Cached || second.vals[i] != first.vals[i] {
			t.Fatalf("cell %d = %+v value %d, want replayed %d", i, o, second.vals[i], first.vals[i])
		}
	}
	if s2.Replayed != 4 || s2.Cached != 4 || s2.Ran != 0 {
		t.Fatalf("resume stats %+v", s2)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MSweepCellsReplayed]; got != 4 {
		t.Errorf("%s = %v, want 4", telemetry.MSweepCellsReplayed, got)
	}
	if got := snap.Gauges[telemetry.MJournalRecovered]; got != 4 {
		t.Errorf("%s = %v, want 4", telemetry.MJournalRecovered, got)
	}
}

// TestResumeProgressStartsAtReplayedCount pins the resume-aware progress
// contract: a resumed sweep announces its replayed cells in one initial
// OnProgress call — done starts at the replayed count — and the workers
// report only the remaining cells.
func TestResumeProgressStartsAtReplayedCount(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "sweep.wal")
	cacheDir := filepath.Join(dir, "cache")

	mk := func(n int) *intCells {
		return newIntCells(n, func(_ context.Context, i, _ int) (int, error) { return i * 7, nil }).keyed("cell-%d")
	}

	// First process: run only the first four cells (a truncated grid), as
	// an interrupted sweep would have.
	c1, err := NewCache(8, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	jr1, err := OpenCellJournal(wal, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mk(4).sweep(context.Background(), Options{Workers: 2, Cache: c1, Journal: jr1}); err != nil {
		t.Fatal(err)
	}
	jr1.Close()

	// Second process: resume over the full grid.
	c2, err := NewCache(8, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	jr2, err := OpenCellJournal(wal, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()

	var mu sync.Mutex
	var calls [][2]int
	_, err = mk(6).sweep(context.Background(), Options{
		Workers: 2, Cache: c2, Journal: jr2,
		OnProgress: func(done, total int) {
			mu.Lock()
			calls = append(calls, [2]int{done, total})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("no progress calls")
	}
	if calls[0] != [2]int{4, 6} {
		t.Fatalf("first progress call %v, want [4 6]: resumed done-count must start at the replayed count", calls[0])
	}
	if len(calls) != 3 {
		t.Fatalf("%d progress calls, want 3 (1 replay batch + 2 fresh cells): %v", len(calls), calls)
	}
	seen := map[int]bool{}
	for _, c := range calls {
		if c[1] != 6 || seen[c[0]] {
			t.Fatalf("bad progress sequence %v", calls)
		}
		seen[c[0]] = true
	}
	if !seen[6] {
		t.Fatalf("final call never reported done == total: %v", calls)
	}
}

func TestJournalHashMismatchReruns(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "sweep.wal")
	cacheDir := filepath.Join(dir, "cache")

	c1, err := NewCache(8, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	jr1, err := OpenCellJournal(wal, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := newIntCells(1, func(context.Context, int, int) (int, error) { return 7, nil })
	cells.keys = []string{"k"}
	if _, err := cells.sweep(context.Background(), Options{Workers: 1, Cache: c1, Journal: jr1}); err != nil {
		t.Fatal(err)
	}
	jr1.Close()

	// Tamper with the cached bytes: still a decodable entry, but its hash no
	// longer matches the journal record, so the cell must re-run rather than
	// serve the imposter.
	files, err := filepath.Glob(filepath.Join(cacheDir, "*.cell"))
	if err != nil || len(files) != 1 {
		t.Fatalf("files %v err %v", files, err)
	}
	if err := os.WriteFile(files[0], []byte("999"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(8, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	jr2, err := OpenCellJournal(wal, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	var ran atomic.Bool
	again := newIntCells(1, func(context.Context, int, int) (int, error) { ran.Store(true); return 7, nil })
	again.keys = []string{"k"}
	if _, err := again.sweep(context.Background(), Options{Workers: 1, Cache: c2, Journal: jr2}); err != nil {
		t.Fatal(err)
	}
	if again.outs[0].Replayed {
		t.Error("hash-mismatched cell was replayed")
	}
	// The tampered entry is a valid cache hit for the plain-cache path, so the
	// defining property is only: no replay without hash verification. If the
	// cache served the tampered value, Replayed must still be false.
	if !ran.Load() && again.vals[0] != 999 {
		t.Fatalf("outcome %+v value %d: expected either a re-run or an honest cache hit", again.outs[0], again.vals[0])
	}
}

func TestPlainCacheHitIsJournalled(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "sweep.wal")
	c, err := NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := putInt(c, "warm", 5); err != nil {
		t.Fatal(err)
	}
	jr, err := OpenCellJournal(wal, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	cells := newIntCells(1, func(context.Context, int, int) (int, error) {
		t.Error("warm cell ran")
		return 0, nil
	})
	cells.keys = []string{"warm"}
	if _, err := cells.sweep(context.Background(), Options{Workers: 1, Cache: c, Journal: jr}); err != nil {
		t.Fatal(err)
	}
	if o := cells.outs[0]; !o.Cached || o.Replayed || cells.vals[0] != 5 {
		t.Fatalf("outcome %+v value %d, want plain cache hit of 5", o, cells.vals[0])
	}
	if _, ok := jr.Completed("warm"); !ok {
		t.Error("cache hit was not committed to the journal")
	}
}

func TestCellJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "sweep.wal")
	jr, err := OpenCellJournal(wal, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Commit("a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := jr.Commit("b", []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	// Chop bytes off the tail, as a crash mid-append would.
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, info.Size()-4); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCellJournal(wal, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovered() != 1 || !re.Torn() {
		t.Fatalf("recovered %d torn %v, want 1/true", re.Recovered(), re.Torn())
	}
	if _, ok := re.Completed("a"); !ok {
		t.Error("intact record lost")
	}
	if _, ok := re.Completed("b"); ok {
		t.Error("torn record believed")
	}
	// The truncated journal accepts new commits.
	if err := re.Commit("b", []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
}

// TestCellJournalCompactionRoundTrip drives the full life cycle the
// compaction path exists for: a log bloated by duplicate commits loses its
// tail to a crash, resume compacts it, and the compacted log carries the
// identical live-cell set through further commits and another resume.
func TestCellJournalCompactionRoundTrip(t *testing.T) {
	defer func(v int64) { CompactThreshold = v }(CompactThreshold)

	dir := t.TempDir()
	wal := filepath.Join(dir, "sweep.wal")
	jr, err := OpenCellJournal(wal, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate commits: every key committed three times, "k1" with a
	// changed payload so compaction must keep the latest hash.
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("k%d", i)
			payload := []byte("payload-" + key)
			if round == 2 && i == 1 {
				payload = []byte("payload-k1-final")
			}
			// Force re-append on changed hash by clearing the dedupe entry.
			jr.mu.Lock()
			delete(jr.done, key)
			jr.mu.Unlock()
			if err := jr.Commit(key, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	jr.Close()

	// Crash damage: chop into the last record.
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	bloated := info.Size()
	if err := os.Truncate(wal, bloated-3); err != nil {
		t.Fatal(err)
	}

	// Resume over the threshold: torn tail dropped, log rewritten.
	CompactThreshold = 64
	re, err := OpenCellJournal(wal, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Compacted() || !re.Torn() {
		t.Fatalf("compacted %v torn %v, want true/true", re.Compacted(), re.Torn())
	}
	if re.Recovered() != 8 {
		t.Fatalf("recovered %d live cells, want 8", re.Recovered())
	}
	if h, ok := re.Completed("k1"); !ok || h != hashBytes([]byte("payload-k1-final")) {
		t.Fatal("compaction lost the latest hash for a re-committed cell")
	}
	info, err = os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() >= bloated {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", bloated, info.Size())
	}
	// The compacted log accepts fresh commits.
	if err := re.Commit("k8", []byte("payload-k8")); err != nil {
		t.Fatal(err)
	}
	re.Close()

	// Round trip: a small compacted log resumes clean — no tear, no
	// re-compaction — with every cell intact.
	CompactThreshold = 1 << 20
	again, err := OpenCellJournal(wal, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Torn() || again.Compacted() {
		t.Fatalf("torn %v compacted %v after clean reopen, want false/false",
			again.Torn(), again.Compacted())
	}
	if again.Recovered() != 9 {
		t.Fatalf("recovered %d cells after compaction round trip, want 9", again.Recovered())
	}
	for i := 0; i < 9; i++ {
		if _, ok := again.Completed(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("cell k%d lost across compaction round trip", i)
		}
	}
}

// TestCellJournalCompactsOnlyDuplicates: a resumed journal over the
// threshold is rewritten only when it holds more records than live cells.
// A log of distinct keys stays the same file at the same size; one with a
// duplicate commit is still compacted.
func TestCellJournalCompactsOnlyDuplicates(t *testing.T) {
	defer func(v int64) { CompactThreshold = v }(CompactThreshold)
	CompactThreshold = 64
	for _, tc := range []struct {
		keys    []string
		compact bool
	}{
		{[]string{"k0", "k1", "k2", "k3", "k4", "k5"}, false},
		{[]string{"k0", "k1", "k2", "k3", "k4", "k0"}, true},
	} {
		wal := filepath.Join(t.TempDir(), "sweep.wal")
		jr, err := OpenCellJournal(wal, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range tc.keys {
			if err := jr.Commit(k, []byte(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
		jr.Close()
		before, err := os.Stat(wal)
		if err != nil || before.Size() <= CompactThreshold {
			t.Fatalf("journal not over the threshold: %v", err)
		}
		jr, err = OpenCellJournal(wal, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		jr.Close()
		after, err := os.Stat(wal)
		if err != nil {
			t.Fatal(err)
		}
		rewritten := !os.SameFile(before, after) || after.Size() != before.Size()
		if jr.Compacted() != tc.compact || rewritten != tc.compact {
			t.Errorf("keys %v: compacted %v, rewritten %v (%d -> %d bytes), want %v",
				tc.keys, jr.Compacted(), rewritten, before.Size(), after.Size(), tc.compact)
		}
	}
}

func TestOpenCellJournalRejectsForeignRecords(t *testing.T) {
	// A frame that passes the CRC but is not a cell record means the file
	// belongs to something else; resuming from it must fail loudly.
	wal := filepath.Join(t.TempDir(), "other.wal")
	w, _, err := journal.OpenFS(wal, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte(`{"seq":1,"name":"run.start"}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCellJournal(wal, true, nil); err == nil {
		t.Fatal("foreign journal resumed without error")
	}
}

func TestFailFastErrorIsDeterministic(t *testing.T) {
	mkCells := func() *intCells {
		return newIntCells(16, func(_ context.Context, i, _ int) (int, error) {
			if i == 5 || i == 11 {
				return 0, fmt.Errorf("cell failure %d", i)
			}
			time.Sleep(time.Duration(i%3) * time.Millisecond)
			return i, nil
		})
	}

	// Serial: cell 5 always fails first and is always the reported error —
	// fully deterministic.
	for trial := 0; trial < 5; trial++ {
		_, err := mkCells().sweep(context.Background(), Options{Workers: 1, FailFast: true})
		if err == nil || !contains(err.Error(), "cell 5:") {
			t.Fatalf("serial trial %d: err %q, want cell 5", trial, err)
		}
	}

	// Parallel: a failing cell can itself be overtaken by the abort (its
	// error degrades to context.Canceled), so the guarantee is the
	// lowest-index genuine failure among those that ran — never a healthy
	// cell, and never whichever-worker-finished-first arbitrariness beyond
	// the failing set.
	for trial := 0; trial < 10; trial++ {
		cells := mkCells()
		_, err := cells.sweep(context.Background(), Options{Workers: 8, FailFast: true})
		out := cells.outs
		if err == nil {
			t.Fatal("fail-fast sweep succeeded")
		}
		if !contains(err.Error(), "cell 5:") && !contains(err.Error(), "cell 11:") {
			t.Fatalf("trial %d: err %q names a non-failing cell", trial, err)
		}
		if contains(err.Error(), "cell 5:") {
			continue
		}
		// Cell 11 may be reported only when cell 5's own failure was
		// pre-empted by the abort.
		if out[5].Err == nil || !errors.Is(out[5].Err, context.Canceled) {
			t.Fatalf("trial %d: cell 11 reported but cell 5 = %v", trial, out[5].Err)
		}
	}
}

func TestNilJournalIsNoop(t *testing.T) {
	var jr *CellJournal
	if err := jr.Commit("k", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, ok := jr.Completed("k"); ok {
		t.Error("nil journal claims completion")
	}
	if jr.Recovered() != 0 || jr.Torn() {
		t.Error("nil journal reports recovery state")
	}
	jr.Instrument(telemetry.New())
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
}

// contains reports substring presence without importing strings in every
// assertion above.
func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
