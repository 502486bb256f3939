// Package sweep executes a grid of independent measurement runs across a
// bounded worker pool with a deterministic merge: however the cells
// interleave at runtime, each outcome lands at its cell's grid index and
// each cell's value is bit-identical to what a serial loop would have
// produced, because every run is a self-contained deterministic simulation.
//
// The pool moves grid indices only; the caller's Cells holds the
// configurations and values. clocksched.Sweep, which runs every grid the
// repo measures, is its one production caller. An optional
// content-addressed cache (in-memory LRU plus an on-disk layer) lets
// repeated regenerations of the paper's tables and figures skip cells that
// have already been measured.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"clocksched/internal/telemetry"
)

// Cells is the grid a sweep runs, addressed by grid index 0..n-1: it holds
// each cell's configuration and value, so the pool moves indices only. Run
// calls its methods for distinct cells concurrently but for one cell from
// one goroutine at a time.
type Cells interface {
	// Key is cell i's content-addressed cache key; "" disables caching for
	// the cell. Keys must fully determine the cell's output (spec, seed,
	// and module version), or the cache will serve stale results. The pool
	// asks for keys only when it has a Cache.
	Key(i int) string
	// Run executes cell i's zero-based attempt and keeps its value. The
	// context is cancelled when the sweep is aborted or the attempt's
	// deadline passes; long cells should observe it.
	Run(ctx context.Context, i, attempt int) error
	// Encode serializes cell i's value for the cache; Decode sets cell i's
	// value from cached bytes.
	Encode(i int) ([]byte, error)
	Decode(i int, b []byte) error
	// Done receives cell i's outcome, once per sweep.
	Done(i int, o Outcome)
}

// Options tunes one sweep.
type Options struct {
	// Workers bounds the concurrency; values < 1 select GOMAXPROCS.
	Workers int
	// FailFast aborts the sweep at the first cell error, cancelling
	// outstanding cells. The default runs every cell and collects all
	// errors.
	FailFast bool
	// Cache, when non-nil, consults and fills the result cache for cells
	// with non-empty keys. Cache failures are never fatal: a broken entry
	// just re-runs the cell.
	Cache *Cache
	// OnProgress, when non-nil, is called after each cell completes (hit,
	// run, or failed) with the number done and the grid total. A resumed
	// sweep reports its journal-replayed cells in one initial call before
	// any worker starts, so done-counts begin at the replayed count rather
	// than rediscovering completed work one cell at a time. Calls may
	// run concurrently from multiple workers and completions may be
	// reported out of order, but each call carries a distinct done count
	// and the final cell always reports done == total; the callback must
	// synchronize its own state and must not re-enter the sweep. It is
	// called outside the pool's internal lock, so a slow callback costs
	// only its own worker.
	OnProgress func(done, total int)
	// Telemetry, when non-nil, receives live pool-occupancy gauges, cell
	// counters/latencies, and (together with Cache) cache traffic. Nil
	// disables instrumentation.
	Telemetry *telemetry.Registry
	// CellTimeout, when positive, bounds each cell attempt's wall time. A
	// cell that blows the budget fails with a wrapped
	// context.DeadlineExceeded; deadlines are terminal, never retried.
	CellTimeout time.Duration
	// Retry paces re-runs of cells that fail with a transient error (see
	// IsTransient). The zero value disables retries.
	Retry RetryPolicy
	// Journal, when non-nil (and combined with Cache), makes the sweep
	// durable: completed cells are committed to the write-ahead journal and
	// a resumed sweep replays them from the cache — hash-verified against
	// the journal — instead of re-running them.
	Journal *CellJournal
}

// PoolStats summarizes one sweep's worker-pool behaviour. Its fields are
// clocksched.SweepTelemetry's, which converts from it.
type PoolStats struct {
	Workers  int // pool size actually used
	PeakBusy int // most cells observed running concurrently
	Ran      int // cells executed fresh
	Cached   int // cells served from the cache
	Failed   int // cells that returned an error
	Skipped  int // cells never started (cancellation or FailFast)
	Replayed int // subset of Cached committed by a previous run's journal
	Retried  int // extra attempts spent on transient failures
}

// Outcome is how one cell of a sweep ended.
type Outcome struct {
	// Err is the cell's failure, ErrSkipped if the sweep aborted before
	// the cell ran, or nil.
	Err error
	// Cached reports that the cell's value was decoded from the cache.
	Cached bool
	// Replayed reports that the cell was journalled complete by a previous
	// run and served from the cache after hash verification (implies
	// Cached).
	Replayed bool
	// Attempts counts how many times the cell's Run executed; zero
	// for cached/replayed/skipped cells, above one when transient failures
	// were retried.
	Attempts int
}

// ErrSkipped marks cells that never ran because the sweep was cancelled or
// aborted by FailFast.
var ErrSkipped = errors.New("sweep: cell skipped")

// Run executes the n cells across the worker pool, reporting each one's
// outcome to cells.Done, and returns the pool statistics.
//
// The returned error is nil when every cell succeeded; the first failure
// (wrapped with its grid index) under FailFast; otherwise the errors.Join
// of every cell failure. Context cancellation is joined in as well, so
// errors.Is(err, context.Canceled) works. Every cell gets its outcome, even
// on error.
func Run(ctx context.Context, n int, cells Cells, opts Options) (PoolStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return PoolStats{}, nil
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	tel := opts.Telemetry
	telBusy := tel.Gauge(telemetry.MSweepWorkersBusy)
	telPeak := tel.Gauge(telemetry.MSweepWorkersPeak)
	telRun := tel.Counter(telemetry.MSweepCellsRun)
	telCached := tel.Counter(telemetry.MSweepCellsCached)
	telReplayed := tel.Counter(telemetry.MSweepCellsReplayed)
	telFailed := tel.Counter(telemetry.MSweepCellsFailed)
	telCell := tel.Timer(telemetry.MSweepCellSeconds)
	opts.Cache.Instrument(tel)
	opts.Journal.Instrument(tel)

	runner := &cellRunner{
		cells:       cells,
		cache:       opts.Cache,
		journal:     opts.Journal,
		timeout:     opts.CellTimeout,
		retry:       opts.Retry,
		telRetries:  tel.Counter(telemetry.MSweepCellRetries),
		telDeadline: tel.Counter(telemetry.MSweepCellDeadline),
	}

	var (
		mu       sync.Mutex
		done     int
		stats    = PoolStats{Workers: workers}
		failures []failure

		busy, peak atomic.Int64
	)

	// Resume prescan: every cell the journal proves complete — and the
	// cache still verifies — is resolved before the pool starts, reported
	// through one initial OnProgress call. A resumed sweep's done-count
	// therefore begins at the replayed-cell count instead of rediscovering
	// finished work one worker pull at a time, and the workers only ever
	// touch cells with real work left.
	var replayed []bool // nil unless the sweep resumes through a journal
	if opts.Journal != nil && opts.Cache != nil {
		replayed = make([]bool, n)
		for i := range n {
			key := cells.Key(i)
			h, ok := opts.Journal.Completed(key)
			if !ok {
				continue
			}
			decode := func(b []byte) error { return cells.Decode(i, b) }
			if enc, hit, err := opts.Cache.Get(key, decode); err == nil && hit && hashBytes(enc) == h {
				cells.Done(i, Outcome{Cached: true, Replayed: true})
				replayed[i] = true
				done++
				stats.Cached++
				stats.Replayed++
				telReplayed.Inc()
			}
		}
		if done > 0 && opts.OnProgress != nil {
			opts.OnProgress(done, n)
		}
	}

	// The feeder hands out cells in grid order until the pool aborts; stop
	// is the first cell it did not hand out. Its close of idx, the
	// workers' ranges over it and wg.Wait order its write before Run
	// reads it.
	idx := make(chan int)
	stop := n
	go func() {
		defer close(idx)
		for i := range n {
			if replayed != nil && replayed[i] {
				continue
			}
			select {
			case idx <- i:
			case <-runCtx.Done():
				stop = i
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				b := busy.Add(1)
				telBusy.Set(float64(b))
				telPeak.SetMax(float64(b))
				for p := peak.Load(); b > p && !peak.CompareAndSwap(p, b); p = peak.Load() {
				}
				span := telCell.Start()
				o := runner.run(runCtx, i)
				span.Stop()
				telBusy.Set(float64(busy.Add(-1)))
				cells.Done(i, o)

				mu.Lock()
				switch {
				case o.Err != nil:
					telFailed.Inc()
					stats.Failed++
					failures = append(failures, failure{i, o.Err})
					if opts.FailFast {
						cancel()
					}
				case o.Cached:
					telCached.Inc()
					stats.Cached++
				default:
					telRun.Inc()
					stats.Ran++
				}
				stats.Retried += max(0, o.Attempts-1)
				done++
				d := done
				mu.Unlock()
				// The callback runs outside the pool lock: a slow or
				// re-entrant observer stalls only its own worker instead of
				// serializing (or deadlocking) the whole pool.
				if opts.OnProgress != nil {
					opts.OnProgress(d, n)
				}
			}
		}()
	}
	wg.Wait()

	for i := stop; i < n; i++ {
		if replayed == nil || !replayed[i] {
			cells.Done(i, Outcome{Err: ErrSkipped})
			stats.Skipped++
		}
	}
	stats.PeakBusy = int(peak.Load())

	var errs []error
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	slices.SortFunc(failures, func(a, b failure) int { return a.i - b.i })
	if !opts.FailFast {
		for _, f := range failures {
			errs = append(errs, fmt.Errorf("cell %d: %w", f.i, f.err))
		}
	} else if f, ok := firstFailure(failures); ok {
		errs = append(errs, fmt.Errorf("cell %d: %w", f.i, f.err))
	}
	return stats, errors.Join(errs...)
}

// failure is a cell that ran and failed.
type failure struct {
	i   int
	err error
}

// firstFailure picks the failure a fail-fast sweep reports from failures,
// in grid order: the lowest-index genuine failure, not whichever worker
// happened to finish first, so the error is deterministic whenever the
// failing cell set is. A cell that died of the abort itself (cancelled) is
// reported only when nothing better exists.
func firstFailure(failures []failure) (failure, bool) {
	if len(failures) == 0 {
		return failure{}, false
	}
	for _, f := range failures {
		if !errors.Is(f.err, context.Canceled) {
			return f, true
		}
	}
	return failures[0], true
}
