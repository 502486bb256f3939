// Package sweep executes grids of independent measurement runs across a
// bounded worker pool with a deterministic merge: however the cells
// interleave at runtime, the returned slice is ordered by grid index and
// each cell's value is bit-identical to what a serial loop would have
// produced, because every run is a self-contained deterministic simulation.
//
// The package is deliberately generic — a job is just a cache key and a
// closure — so both the public clocksched batch API and the internal
// experiment harness can fan their grids through the same engine. An
// optional content-addressed cache (in-memory LRU plus an on-disk layer)
// lets repeated regenerations of the paper's tables and figures skip cells
// that have already been measured.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"clocksched/internal/telemetry"
)

// Job is one cell of a sweep grid.
type Job struct {
	// Key is the cell's content-addressed cache key; empty disables
	// caching for this cell. Keys must fully determine the cell's output
	// (spec, seed, and module version), or the cache will serve stale
	// results.
	Key string
	// Run executes the cell. The context is cancelled when the sweep is
	// aborted; long cells should observe it.
	Run func(ctx context.Context) (any, error)
}

// Options tunes one sweep.
type Options struct {
	// Workers bounds the concurrency; values < 1 select GOMAXPROCS.
	Workers int
	// FailFast aborts the sweep at the first cell error, cancelling
	// outstanding cells. The default runs every cell and collects all
	// errors.
	FailFast bool
	// Cache, when non-nil, consults and fills the result cache for jobs
	// with non-empty keys. Cache failures are never fatal: a broken entry
	// just re-runs the cell.
	Cache *Cache
	// Codec encodes and decodes the jobs' values for Cache; Run rejects a
	// Cache given without one.
	Codec Codec
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
	// Stats, when non-nil, is filled with the sweep's pool statistics
	// before Run returns.
	Stats *PoolStats
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

// PoolStats summarizes one sweep's worker-pool behaviour.
type PoolStats struct {
	Workers  int // pool size actually used
	PeakBusy int // most cells observed running concurrently
	Ran      int // cells executed fresh
	Cached   int // cells served from the cache
	Replayed int // subset of Cached committed by a previous run's journal
	Failed   int // cells that returned an error
	Skipped  int // cells never started (cancellation or FailFast)
	Retries  int // extra attempts spent on transient failures
}

// Outcome is one cell's result, in grid order.
type Outcome struct {
	// Value is the cell's result; nil when Err is non-nil.
	Value any
	// Err is the cell's failure, ErrSkipped if the sweep aborted before
	// the cell ran, or nil.
	Err error
	// Cached reports that Value was served from the cache.
	Cached bool
	// Replayed reports that the cell was journalled complete by a previous
	// run and served from the cache after hash verification (implies
	// Cached).
	Replayed bool
	// Attempts counts how many times the cell's Run closure executed; zero
	// for cached/replayed/skipped cells, above one when transient failures
	// were retried.
	Attempts int
}

// ErrSkipped marks cells that never ran because the sweep was cancelled or
// aborted by FailFast.
var ErrSkipped = errors.New("sweep: cell skipped")

// Run executes every job across the worker pool and returns the outcomes
// ordered by grid index regardless of completion order.
//
// The returned error is nil when every cell succeeded; the first failure
// (wrapped with its grid index) under FailFast; otherwise the errors.Join
// of every cell failure. Context cancellation is joined in as well, so
// errors.Is(err, context.Canceled) works. The outcome slice is always
// complete and indexable, even on error — except when a Cache comes
// without a Codec, a misconfiguration Run reports before running anything.
func Run(ctx context.Context, jobs []Job, opts Options) ([]Outcome, error) {
	if opts.Cache != nil && (opts.Codec.Encode == nil || opts.Codec.Decode == nil) {
		return nil, errors.New("sweep: Cache needs a Codec with both halves")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Outcome, len(jobs))
	if len(jobs) == 0 {
		return out, nil
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

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
		cache:       opts.Cache,
		codec:       opts.Codec,
		journal:     opts.Journal,
		timeout:     opts.CellTimeout,
		retry:       opts.Retry,
		telRetries:  tel.Counter(telemetry.MSweepCellRetries),
		telDeadline: tel.Counter(telemetry.MSweepCellDeadline),
	}

	var (
		mu   sync.Mutex
		done int
		ran  = make([]bool, len(jobs))

		busy, peak atomic.Int64
	)

	// Resume prescan: every cell the journal proves complete — and the
	// cache still verifies — is resolved before the pool starts, reported
	// through one initial OnProgress call. A resumed sweep's done-count
	// therefore begins at the replayed-cell count instead of rediscovering
	// finished work one worker pull at a time, and the workers only ever
	// touch cells with real work left.
	skip := make([]bool, len(jobs))
	if opts.Journal != nil && opts.Cache != nil {
		for i, j := range jobs {
			if j.Key == "" {
				continue
			}
			h, ok := opts.Journal.Completed(j.Key)
			if !ok {
				continue
			}
			if v, enc, hit, err := opts.Cache.Get(j.Key, opts.Codec); err == nil && hit && hashBytes(enc) == h {
				out[i] = Outcome{Value: v, Cached: true, Replayed: true}
				ran[i], skip[i] = true, true
				done++
				telReplayed.Inc()
			}
		}
		if done > 0 && opts.OnProgress != nil {
			opts.OnProgress(done, len(jobs))
		}
	}

	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range jobs {
			if skip[i] {
				continue
			}
			select {
			case idx <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
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
				o := runner.run(runCtx, i, jobs[i])
				span.Stop()
				telBusy.Set(float64(busy.Add(-1)))
				switch {
				case o.Err != nil:
					telFailed.Inc()
				case o.Cached:
					telCached.Inc()
				default:
					telRun.Inc()
				}

				mu.Lock()
				out[i] = o
				ran[i] = true
				done++
				d := done
				if o.Err != nil && opts.FailFast {
					cancel()
				}
				mu.Unlock()
				// The callback runs outside the pool lock: a slow or
				// re-entrant observer stalls only its own worker instead of
				// serializing (or deadlocking) the whole pool.
				if opts.OnProgress != nil {
					opts.OnProgress(d, len(jobs))
				}
			}
		}()
	}
	wg.Wait()

	var errs []error
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	stats := PoolStats{Workers: workers, PeakBusy: int(peak.Load())}
	for i := range jobs {
		if !ran[i] {
			out[i] = Outcome{Err: ErrSkipped}
			stats.Skipped++
			continue
		}
		switch {
		case out[i].Err != nil:
			stats.Failed++
		case out[i].Replayed:
			stats.Replayed++
			stats.Cached++
		case out[i].Cached:
			stats.Cached++
		default:
			stats.Ran++
		}
		if out[i].Attempts > 1 {
			stats.Retries += out[i].Attempts - 1
		}
		if out[i].Err != nil && !opts.FailFast {
			errs = append(errs, fmt.Errorf("cell %d: %w", i, out[i].Err))
		}
	}
	if opts.FailFast {
		// Report the lowest-grid-index genuine failure, not whichever
		// worker happened to finish first: the error is deterministic
		// whenever the failing cell set is. Cells that died of the abort
		// itself (cancelled or never started) are only reported when
		// nothing better exists.
		first := -1
		for i := range jobs {
			err := out[i].Err
			if err == nil || errors.Is(err, ErrSkipped) || errors.Is(err, context.Canceled) {
				continue
			}
			first = i
			break
		}
		if first < 0 {
			for i := range jobs {
				if out[i].Err != nil && !errors.Is(out[i].Err, ErrSkipped) {
					first = i
					break
				}
			}
		}
		if first >= 0 {
			errs = append(errs, fmt.Errorf("cell %d: %w", first, out[first].Err))
		}
	}
	if opts.Stats != nil {
		*opts.Stats = stats
	}
	return out, errors.Join(errs...)
}
