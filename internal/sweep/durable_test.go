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
	return RetryPolicy{Max: max, Base: time.Microsecond, Cap: 10 * time.Microsecond}
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

func TestWithAttemptRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := AttemptFromContext(ctx); got != 0 {
		t.Fatalf("bare context attempt = %d, want 0", got)
	}
	if got := AttemptFromContext(WithAttempt(ctx, 3)); got != 3 {
		t.Fatalf("attempt = %d, want 3", got)
	}
}

func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{Max: 5, Base: 100 * time.Millisecond, Cap: 5 * time.Second, Seed: 7}
	for cell := 0; cell < 4; cell++ {
		for attempt := 0; attempt < 8; attempt++ {
			d1 := p.delay(cell, attempt)
			d2 := p.delay(cell, attempt)
			if d1 != d2 {
				t.Fatalf("delay(%d,%d) nondeterministic: %v vs %v", cell, attempt, d1, d2)
			}
			grown := p.Cap
			if attempt < 6 && p.Base<<uint(attempt) < p.Cap {
				grown = p.Base << uint(attempt)
			}
			if d1 < grown/2 || d1 > grown {
				t.Fatalf("delay(%d,%d) = %v outside [%v, %v]", cell, attempt, d1, grown/2, grown)
			}
		}
	}
	// Different seeds must produce different schedules somewhere.
	q := p
	q.Seed = 8
	same := true
	for attempt := 0; attempt < 8 && same; attempt++ {
		same = p.delay(0, attempt) == q.delay(0, attempt)
	}
	if same {
		t.Error("seed does not influence the backoff schedule")
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	reg := telemetry.New()
	var calls atomic.Int64
	jobs := []Job{{Run: func(ctx context.Context) (any, error) {
		n := calls.Add(1)
		if AttemptFromContext(ctx) != int(n-1) {
			t.Errorf("call %d saw attempt %d", n, AttemptFromContext(ctx))
		}
		if n < 3 {
			return nil, flakyErr{"injected"}
		}
		return 42, nil
	}}}
	var stats PoolStats
	out, err := Run(context.Background(), jobs, Options{
		Workers: 1, Retry: fastRetry(5), Telemetry: reg, Stats: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Value.(int) != 42 || out[0].Attempts != 3 {
		t.Fatalf("outcome %+v, want value 42 after 3 attempts", out[0])
	}
	if stats.Retries != 2 {
		t.Errorf("stats.Retries = %d, want 2", stats.Retries)
	}
	if got := reg.Snapshot().Counters[telemetry.MSweepCellRetries]; got != 2 {
		t.Errorf("%s = %v, want 2", telemetry.MSweepCellRetries, got)
	}
}

func TestRetryBudgetExhaustedDegradesToError(t *testing.T) {
	var calls atomic.Int64
	jobs := []Job{{Run: func(context.Context) (any, error) {
		calls.Add(1)
		return nil, flakyErr{"always"}
	}}}
	out, err := Run(context.Background(), jobs, Options{Workers: 1, Retry: fastRetry(2)})
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
	jobs := []Job{{Run: func(context.Context) (any, error) {
		calls.Add(1)
		return nil, boom
	}}}
	out, err := Run(context.Background(), jobs, Options{Workers: 1, Retry: fastRetry(5)})
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
	jobs := []Job{{Run: func(ctx context.Context) (any, error) {
		calls.Add(1)
		<-ctx.Done() // a well-behaved cell observes cancellation
		return nil, ctx.Err()
	}}}
	out, err := Run(context.Background(), jobs, Options{
		Workers:     1,
		CellTimeout: 10 * time.Millisecond,
		Retry:       fastRetry(5), // must NOT rescue a blown deadline
		Telemetry:   reg,
	})
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

	mk := func(mustRun bool) []Job {
		jobs := make([]Job, 4)
		for i := range jobs {
			jobs[i] = Job{
				Key: fmt.Sprintf("cell-%d", i),
				Run: func(context.Context) (any, error) {
					if !mustRun {
						t.Errorf("cell %d re-ran after journal commit", i)
					}
					return i * 11, nil
				},
			}
		}
		return jobs
	}

	// First run: everything simulates and commits.
	c1, err := NewCache(8, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	jr1, err := OpenCellJournal(wal, false)
	if err != nil {
		t.Fatal(err)
	}
	var s1 PoolStats
	out1, err := Run(context.Background(), mk(true), Options{Workers: 2, Cache: c1, Codec: jsonCodec(), Journal: jr1, Stats: &s1})
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
	// without invoking a single closure.
	c2, err := NewCache(8, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	jr2, err := OpenCellJournal(wal, true)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if jr2.Recovered() != 4 || jr2.Torn() {
		t.Fatalf("recovered %d torn %v, want 4/false", jr2.Recovered(), jr2.Torn())
	}
	var s2 PoolStats
	out2, err := Run(context.Background(), mk(false), Options{
		Workers: 2, Cache: c2, Codec: jsonCodec(), Journal: jr2, Telemetry: reg, Stats: &s2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out2 {
		if !out2[i].Replayed || !out2[i].Cached || out2[i].Value.(int) != out1[i].Value.(int) {
			t.Fatalf("cell %d = %+v, want replayed %v", i, out2[i], out1[i].Value)
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

	mk := func() []Job {
		jobs := make([]Job, 6)
		for i := range jobs {
			jobs[i] = Job{
				Key: fmt.Sprintf("cell-%d", i),
				Run: func(context.Context) (any, error) { return i * 7, nil },
			}
		}
		return jobs
	}

	// First process: run only the first four cells (a truncated grid), as
	// an interrupted sweep would have.
	c1, err := NewCache(8, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	jr1, err := OpenCellJournal(wal, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), mk()[:4], Options{Workers: 2, Cache: c1, Codec: jsonCodec(), Journal: jr1}); err != nil {
		t.Fatal(err)
	}
	jr1.Close()

	// Second process: resume over the full grid.
	c2, err := NewCache(8, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	jr2, err := OpenCellJournal(wal, true)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()

	var mu sync.Mutex
	var calls [][2]int
	_, err = Run(context.Background(), mk(), Options{
		Workers: 2, Cache: c2, Codec: jsonCodec(), Journal: jr2,
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
	jr1, err := OpenCellJournal(wal, false)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Key: "k", Run: func(context.Context) (any, error) { return 7, nil }}}
	if _, err := Run(context.Background(), jobs, Options{Workers: 1, Cache: c1, Codec: jsonCodec(), Journal: jr1}); err != nil {
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
	jr2, err := OpenCellJournal(wal, true)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	var ran atomic.Bool
	jobs2 := []Job{{Key: "k", Run: func(context.Context) (any, error) { ran.Store(true); return 7, nil }}}
	out, err := Run(context.Background(), jobs2, Options{Workers: 1, Cache: c2, Codec: jsonCodec(), Journal: jr2})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Replayed {
		t.Error("hash-mismatched cell was replayed")
	}
	// The tampered entry is a valid cache hit for the plain-cache path, so the
	// defining property is only: no replay without hash verification. If the
	// cache served the tampered value, Replayed must still be false.
	if !ran.Load() && out[0].Value.(int) != 999 {
		t.Fatalf("outcome %+v: expected either a re-run or an honest cache hit", out[0])
	}
}

func TestPlainCacheHitIsJournalled(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "sweep.wal")
	c, err := NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("warm", 5, jsonCodec()); err != nil {
		t.Fatal(err)
	}
	jr, err := OpenCellJournal(wal, false)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	jobs := []Job{{Key: "warm", Run: func(context.Context) (any, error) {
		t.Error("warm cell ran")
		return nil, nil
	}}}
	out, err := Run(context.Background(), jobs, Options{Workers: 1, Cache: c, Codec: jsonCodec(), Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Cached || out[0].Replayed {
		t.Fatalf("outcome %+v, want plain cache hit", out[0])
	}
	if _, ok := jr.Completed("warm"); !ok {
		t.Error("cache hit was not committed to the journal")
	}
}

func TestCellJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "sweep.wal")
	jr, err := OpenCellJournal(wal, false)
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

	re, err := OpenCellJournal(wal, true)
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
	jr, err := OpenCellJournal(wal, false)
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
	re, err := OpenCellJournal(wal, true)
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
	again, err := OpenCellJournal(wal, true)
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
		jr, err := OpenCellJournal(wal, false)
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
		jr, err = OpenCellJournal(wal, true)
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
	w, err := journal.Create(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte(`{"seq":1,"name":"run.start"}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCellJournal(wal, true); err == nil {
		t.Fatal("foreign journal resumed without error")
	}
}

func TestFailFastErrorIsDeterministic(t *testing.T) {
	mkJobs := func() []Job {
		jobs := make([]Job, 16)
		for i := range jobs {
			switch i {
			case 5, 11:
				jobs[i] = Job{Run: func(context.Context) (any, error) {
					return nil, fmt.Errorf("cell failure %d", i)
				}}
			default:
				jobs[i] = Job{Run: func(context.Context) (any, error) {
					time.Sleep(time.Duration(i%3) * time.Millisecond)
					return i, nil
				}}
			}
		}
		return jobs
	}

	// Serial: cell 5 always fails first and is always the reported error —
	// fully deterministic.
	for trial := 0; trial < 5; trial++ {
		_, err := Run(context.Background(), mkJobs(), Options{Workers: 1, FailFast: true})
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
		out, err := Run(context.Background(), mkJobs(), Options{Workers: 8, FailFast: true})
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
