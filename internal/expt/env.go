package expt

import (
	"context"
	"time"

	"clocksched/internal/sweep"
	"clocksched/internal/telemetry"
)

// Env carries the cross-cutting execution settings for one experiment run:
// the cancellation context, the workload jitter seed, the sweep worker
// count, and an optional cell cache. The zero value runs serially with seed
// 0 and no cache.
type Env struct {
	Ctx     context.Context
	Seed    uint64
	Workers int
	Cache   *sweep.Cache
	// Telemetry, when non-nil, instruments the sweep pool, the cache, and
	// every cell's simulation stack. Purely observational: results are
	// bit-identical with or without it.
	Telemetry *telemetry.Registry
	// Journal, when non-empty (with Cache), is the path of the cell
	// journal that durably commits each completed cell, so an interrupted
	// experiment regeneration can resume, replaying committed cells from
	// the disk cache. Each sweep opens it with resume and closes it when
	// done: truncating it for a fresh run is the caller's job, done once.
	Journal string
	// CellTimeout, when positive, bounds each cell attempt's wall time.
	CellTimeout time.Duration
	// Retries configures per-cell retry of transient failures with seeded
	// exponential backoff; zero disables.
	Retries int
	// Progress, when non-nil, receives the sweep pool's done/total counts
	// (see clocksched.SweepConfig.Progress). A resumed run's counts start at
	// the journal-replayed cell count.
	Progress func(done, total int)
}

// DefaultEnv is the serial environment the pre-batch API ran under: one
// worker, no cache.
func DefaultEnv(seed uint64) Env {
	return Env{Ctx: context.Background(), Seed: seed, Workers: 1}
}

// Context is the run's context: Ctx, or context.Background when unset.
func (e Env) Context() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}
