package sweep

// Durability layer: the cell journal that makes an interrupted sweep
// resumable, per-cell retry with seeded exponential backoff, and the
// transient-error classification that decides what is worth retrying.
//
// The invariants, in order of trust:
//
//   - The journal is the commit point. A cell is "completed" iff a journal
//     record holding its cache key and the sha256 of its encoded result
//     bytes has been fsynced. The record is written only after the cache
//     write, so a committed cell always had its bytes on disk at commit
//     time.
//   - The cache is verified, never trusted, on resume. A journalled cell
//     is replayed only if the cache still produces bytes whose hash
//     matches the journal record. On a mismatch the cell goes to the
//     workers like any other: an entry that still decodes is served as a
//     plain cache hit and re-committed under its new hash, and one that
//     is missing or corrupt is re-run. Since every run is a deterministic
//     simulation, a re-run reproduces the identical bytes — resume
//     correctness never depends on cache durability.
//   - Backoff is deterministic. Retry delays derive from (cell index,
//     attempt), not from a global RNG or the clock, so a sweep's retry
//     schedule is reproducible regardless of worker interleaving.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clocksched/internal/journal"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
)

// IsTransient reports whether err declares itself retryable by exposing a
// `Transient() bool` method anywhere in its chain. The sweep engine retries
// only transient failures: a deterministic simulation that failed on bad
// input will fail identically forever, but an injected fault or a flaky
// external dependency may clear on the next attempt.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// RetryPolicy bounds and paces per-cell retries of transient failures.
type RetryPolicy struct {
	// Max is the retry budget: a cell runs at most 1+Max times. Zero
	// disables retries.
	Max int
	// Base is the first backoff delay; non-positive selects 100ms. The
	// delay doubles per attempt, up to retryCap.
	Base time.Duration
}

// retryCap bounds a grown backoff delay.
const retryCap = 5 * time.Second

// delay computes the backoff before retry number attempt (zero-based) of
// the given cell: exponential growth clamped at retryCap, jittered into
// [d/2, d] by a stream keyed on (cell, attempt) so the schedule is
// deterministic however workers interleave.
func (p RetryPolicy) delay(cell, attempt int) time.Duration {
	base := p.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := retryCap
	// Grow by doubling, watching for overflow past the cap.
	if shift := uint(attempt); shift < 62 && base<<shift > 0 && base<<shift < retryCap {
		d = base << shift
	}
	rng := sim.NewRNGStream(uint64(cell)*0x9e3779b97f4a7c15+0xd1b54a32d192ed03, uint64(attempt))
	half := d / 2
	return half + time.Duration(rng.Uint64()%uint64(half+1))
}

// cellRecord is one journal entry: a completed cell's cache key and the
// sha256 of its encoded result bytes.
type cellRecord struct {
	K string `json:"k"`
	H string `json:"h"`
}

// hashBytes returns the journal's content hash of encoded result bytes.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CellJournal is the sweep's write-ahead completion log: one fsynced record
// per completed cell. Opening it with resume recovers the completed-cell
// set from a previous (possibly killed) process so Run can replay those
// cells from the cache instead of re-simulating them. A nil *CellJournal is
// the disabled layer; all methods are no-ops.
type CellJournal struct {
	mu        sync.Mutex
	w         *journal.Writer
	done      map[string]string // cache key → result hash
	recovered int               // records recovered at open
	torn      bool              // open found (and truncated) a torn tail
	compacted bool              // open rewrote the log down to live records

	tel atomic.Pointer[journalTel]
}

// CompactThreshold is the resumed-journal size (bytes of valid prefix)
// above which OpenCellJournal rewrites a log holding duplicate records
// down to one record per live cell. Long-lived journals accumulate
// duplicate commits — cache hits re-journal, re-runs re-commit — and
// replaying an unbounded log on every resume is wasted work. A var, not a
// const, so tests (and unusual deployments) can lower it.
var CompactThreshold int64 = 1 << 20

// journalTel bundles the journal's pre-resolved instruments.
type journalTel struct {
	commits, errs *telemetry.Counter
}

// OpenCellJournal opens (resume=false: truncates) the cell journal at path,
// routing its durable writes — appends, fsyncs, and the compaction rewrite —
// through fs (nil selects the real filesystem; chaos tests inject faults).
// With resume, previously committed records are recovered — a torn tail
// from a crash mid-append is dropped, never misread — and Recovered/Torn
// report what was found. A record that passes the framing checksum but is
// not a valid cell record means the file is some other journal (or a format
// break) and fails the open rather than silently resuming wrong.
//
// A resumed journal whose valid prefix exceeds CompactThreshold and that
// holds more records than live cells is compacted before appending
// resumes: the log is atomically rewritten with one record per live cell
// (latest hash, first-commit order), dropping duplicate commits and the
// already-truncated tail. A log of distinct records is left alone, however
// large: rewriting it would drop nothing, and every reopen would pay for
// the fsynced copy. Compaction preserves exactly the recovered cell set —
// it changes the file, never the semantics — and Compacted reports that it
// happened.
func OpenCellJournal(path string, resume bool, fs journal.FS) (*CellJournal, error) {
	done := map[string]string{}
	var order []string // first-commit order of distinct keys
	parse := func(p []byte) error {
		var rec cellRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return fmt.Errorf("sweep: journal %s: bad cell record: %w", path, err)
		}
		if rec.K == "" || rec.H == "" {
			return fmt.Errorf("sweep: journal %s: cell record missing key or hash", path)
		}
		if _, seen := done[rec.K]; !seen {
			order = append(order, rec.K)
		}
		done[rec.K] = rec.H
		return nil
	}

	var torn, compacted bool
	if resume {
		stats, err := journal.ReplayFile(path, parse)
		if err != nil {
			return nil, err
		}
		torn = stats.Torn
		if stats.ValidBytes > CompactThreshold && stats.Records > len(order) {
			payloads := make([][]byte, 0, len(order))
			for _, k := range order {
				rec, err := json.Marshal(cellRecord{K: k, H: done[k]})
				if err != nil {
					return nil, fmt.Errorf("sweep: journal %s: %w", path, err)
				}
				payloads = append(payloads, rec)
			}
			if err := journal.RewriteFS(path, payloads, fs); err != nil {
				return nil, fmt.Errorf("sweep: compacting journal %s: %w", path, err)
			}
			compacted = true
		}
	}

	// The records are already parsed (or the log is fresh); the second scan
	// inside Open just finds the append offset and drops any torn tail.
	w, _, err := journal.OpenFS(path, resume, nil, fs)
	if err != nil {
		return nil, err
	}
	return &CellJournal{w: w, done: done, recovered: len(done), torn: torn, compacted: compacted}, nil
}

// Instrument attaches commit/error counters and publishes the recovery
// gauges (records recovered, torn-tail flag) to the registry. Safe to call
// once per Run on a shared journal: counters accumulate, gauges are
// idempotent. A nil registry detaches; a nil journal is a no-op.
func (jr *CellJournal) Instrument(reg *telemetry.Registry) {
	if jr == nil {
		return
	}
	if reg == nil {
		jr.tel.Store(nil)
		return
	}
	jr.tel.Store(&journalTel{
		commits: reg.Counter(telemetry.MJournalCommits),
		errs:    reg.Counter(telemetry.MJournalErrors),
	})
	jr.mu.Lock()
	recovered, torn, compacted := jr.recovered, jr.torn, jr.compacted
	jr.mu.Unlock()
	reg.Gauge(telemetry.MJournalRecovered).Set(float64(recovered))
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	reg.Gauge(telemetry.MJournalTornTail).Set(flag(torn))
	reg.Gauge(telemetry.MJournalCompacted).Set(flag(compacted))
}

// Recovered reports how many completed-cell records the open replayed.
func (jr *CellJournal) Recovered() int {
	if jr == nil {
		return 0
	}
	jr.mu.Lock()
	defer jr.mu.Unlock()
	return jr.recovered
}

// Torn reports whether the open found (and truncated) a damaged tail.
func (jr *CellJournal) Torn() bool {
	if jr == nil {
		return false
	}
	jr.mu.Lock()
	defer jr.mu.Unlock()
	return jr.torn
}

// Compacted reports whether the open rewrote an oversized resumed journal
// down to its live records.
func (jr *CellJournal) Compacted() bool {
	if jr == nil {
		return false
	}
	jr.mu.Lock()
	defer jr.mu.Unlock()
	return jr.compacted
}

// Completed reports the recorded result hash for a cache key, if the cell
// has been committed (in this process or a resumed one).
func (jr *CellJournal) Completed(key string) (hash string, ok bool) {
	if jr == nil || key == "" {
		return "", false
	}
	jr.mu.Lock()
	defer jr.mu.Unlock()
	h, ok := jr.done[key]
	return h, ok
}

// Commit durably records the cell: the key/hash record is appended and
// fsynced before Commit returns, making this the moment the cell survives a
// crash. Re-committing an identical record is a no-op. A failed commit
// degrades durability, not the sweep — the caller counts it and carries on.
func (jr *CellJournal) Commit(key string, enc []byte) error {
	if jr == nil || key == "" {
		return nil
	}
	h := hashBytes(enc)
	jr.mu.Lock()
	if prev, ok := jr.done[key]; ok && prev == h {
		jr.mu.Unlock()
		return nil
	}
	jr.done[key] = h
	jr.mu.Unlock()

	var commits, errsC *telemetry.Counter
	if t := jr.tel.Load(); t != nil {
		commits, errsC = t.commits, t.errs
	}
	rec, err := json.Marshal(cellRecord{K: key, H: h})
	if err == nil {
		if err = jr.w.Append(rec); err == nil {
			err = jr.w.Sync()
		}
	}
	if err != nil {
		errsC.Inc()
		return err
	}
	commits.Inc()
	return nil
}

// Close syncs and closes the underlying journal file.
func (jr *CellJournal) Close() error {
	if jr == nil {
		return nil
	}
	return jr.w.Close()
}

// cellRunner is the per-sweep execution environment for one cell: the
// grid, cache, journal, deadline budget, retry policy, and the
// pre-resolved instruments.
type cellRunner struct {
	cells       Cells
	cache       *Cache
	journal     *CellJournal
	timeout     time.Duration
	retry       RetryPolicy
	telRetries  *telemetry.Counter
	telDeadline *telemetry.Counter
}

// run executes cell i: cache lookup, then the retry loop. Journal replay
// is Run's resume prescan alone, so a cell whose key this same run already
// committed comes back as a plain cache hit, never as Replayed. Cache and
// journal failures are swallowed — durability accelerates and protects, it
// never gates a result.
func (cr *cellRunner) run(ctx context.Context, i int) Outcome {
	if err := ctx.Err(); err != nil {
		return Outcome{Err: err}
	}

	var key, file string // the cell's cache key, and its file once the cache has derived it
	if cr.cache != nil {
		key = cr.cells.Key(i)
	}
	if key != "" {
		decode := func(b []byte) error { return cr.cells.Decode(i, b) }
		if enc, hit, err := cr.cache.get(key, &file, decode); err == nil && hit {
			// A plain cache hit also completes the cell; journal it so a
			// later resume replays instead of depending on cache policy.
			_ = cr.journal.Commit(key, enc)
			return Outcome{Cached: true}
		}
	}

	attempts := 0
	for {
		attempts++
		cellCtx, cancel := ctx, func() {}
		if cr.timeout > 0 {
			cellCtx, cancel = context.WithTimeout(ctx, cr.timeout)
		}
		err := cr.cells.Run(cellCtx, i, attempts-1)
		cancel()
		if err == nil {
			if key != "" {
				encode := func() ([]byte, error) { return cr.cells.Encode(i) }
				if enc, perr := cr.cache.put(key, &file, encode); perr == nil {
					_ = cr.journal.Commit(key, enc)
				}
			}
			return Outcome{Attempts: attempts}
		}
		// A blown per-cell deadline (with the sweep itself still healthy)
		// is terminal, not transient: the same budget would expire the same
		// way on every retry of a deterministic cell.
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			cr.telDeadline.Inc()
			return Outcome{
				Err:      fmt.Errorf("cell deadline %v exceeded after %d attempt(s): %w", cr.timeout, attempts, err),
				Attempts: attempts,
			}
		}
		if ctx.Err() != nil {
			return Outcome{Err: err, Attempts: attempts}
		}
		if !IsTransient(err) {
			return Outcome{Err: err, Attempts: attempts}
		}
		if attempts > cr.retry.Max {
			return Outcome{
				Err:      fmt.Errorf("retry budget (%d) exhausted: %w", cr.retry.Max, err),
				Attempts: attempts,
			}
		}
		cr.telRetries.Inc()
		select {
		case <-time.After(cr.retry.delay(i, attempts-1)):
		case <-ctx.Done():
			return Outcome{Err: ctx.Err(), Attempts: attempts}
		}
	}
}
