package expt

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"time"

	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/sim"
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
	// Stats, when non-nil, is filled with the pool statistics of the last
	// grid run.
	Stats *sweep.PoolStats
	// Journal, when non-nil (with Cache), durably commits each completed
	// cell so an interrupted experiment regeneration can resume, replaying
	// committed cells from the disk cache.
	Journal *sweep.CellJournal
	// CellTimeout, when positive, bounds each cell attempt's wall time.
	CellTimeout time.Duration
	// Retries and RetryBase configure per-cell retry of transient failures
	// with seeded exponential backoff; zero Retries disables.
	Retries   int
	RetryBase time.Duration
	// Progress, when non-nil, receives the sweep pool's done/total counts
	// (see sweep.Options.OnProgress). A resumed run's counts start at the
	// journal-replayed cell count.
	Progress func(done, total int)
	// DataDir, when non-empty, is a durable scratch directory for
	// experiments that keep their own cell caches and journals. Cache and
	// Journal above carry grid-cell payloads, so experiments sweeping the
	// public clocksched.Sweep path (the fleet experiment) cannot share
	// them; they open result-typed state under DataDir instead.
	DataDir string
	// Resume tells DataDir-owning experiments to replay the journal left
	// by an interrupted run instead of truncating it, mirroring the
	// Journal field's semantics for grid experiments.
	Resume bool
}

// DefaultEnv is the serial environment the pre-batch API ran under: one
// worker, no cache.
func DefaultEnv(seed uint64) Env {
	return Env{Ctx: context.Background(), Seed: seed, Workers: 1}
}

func (e Env) ctx() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

// Cell is the serializable projection of one measurement run that grid
// experiments consume. Unlike RunOutcome — which exposes the live kernel
// and workload for arbitrary queries — a Cell is plain data, so it can be
// cached on disk and compared bit for bit. Misses are counted at the
// paper's 33 ms perceptual slack.
type Cell struct {
	WorkloadName string // the workload's display name, e.g. "MPEG"

	EnergyJ   float64
	AvgPowerW float64
	MeanUtil  float64

	Deadlines   int
	Misses      int
	MaxLateness sim.Duration

	SpeedChanges   int
	VoltageChanges int
	Residency      [cpu.NumSteps]sim.Duration

	// Util is the per-quantum utilization log; captured only when the
	// grid asks for it, since it dominates the cell's footprint.
	Util []kernel.UtilSample
}

// GridCell names one cell of an experiment grid and builds its spec.
type GridCell struct {
	// Key discriminates the cell for caching; it must determine the spec
	// completely (configuration name, seed, duration, …). Empty disables
	// caching for the cell. RunGrid prefixes the simulation version and
	// the capture mode, so bumping sim.Version invalidates every entry.
	Key string
	// Spec builds a fresh spec; it is called once, on the worker, because
	// policy modules carry per-run state.
	Spec func() RunSpec
}

// projectCell reduces a run outcome to its serializable projection.
func projectCell(out *RunOutcome, keepUtil bool) Cell {
	col := out.Workload.Metrics()
	c := Cell{
		WorkloadName:   out.Workload.Name(),
		EnergyJ:        out.EnergyJ,
		AvgPowerW:      out.AvgPowerW,
		MeanUtil:       out.MeanUtil,
		Deadlines:      col.Count(),
		Misses:         col.MissCount(table2Slack),
		MaxLateness:    col.MaxLateness(),
		SpeedChanges:   out.Kernel.SpeedChanges(),
		VoltageChanges: out.Kernel.VoltageChanges(),
		Residency:      out.Kernel.Residency(),
	}
	if keepUtil {
		c.Util = out.Kernel.UtilLog()
	}
	return c
}

// RunGrid fans the cells across Env.Workers goroutines and returns their
// projections ordered by grid index — bit-identical to running the same
// specs in a serial loop, whatever the completion order. The first cell
// error aborts the grid. keepUtil retains each cell's per-quantum
// utilization log (needed by the figure panels, costly for big grids).
func RunGrid(env Env, cells []GridCell, keepUtil bool) ([]Cell, error) {
	jobs := make([]sweep.Job, len(cells))
	for i, c := range cells {
		key := ""
		if c.Key != "" {
			key = sim.NewHasher("expt.Cell").
				Field("cell", c.Key).
				Field("util", keepUtil).
				Sum()
		}
		spec := c.Spec
		jobs[i] = sweep.Job{
			Key: key,
			Run: func(ctx context.Context) (any, error) {
				s := spec()
				s.Telemetry = env.Telemetry
				s.Stream = !keepUtil
				out, err := RunContext(ctx, s)
				if err != nil {
					return nil, err
				}
				return projectCell(out, keepUtil), nil
			},
		}
	}
	outs, err := sweep.Run(env.ctx(), jobs, sweep.Options{
		Workers:     env.Workers,
		FailFast:    true,
		Cache:       env.Cache,
		OnProgress:  env.Progress,
		Telemetry:   env.Telemetry,
		Stats:       env.Stats,
		Journal:     env.Journal,
		CellTimeout: env.CellTimeout,
		Retry:       sweep.RetryPolicy{Max: env.Retries, Base: env.RetryBase, Seed: env.Seed},
	})
	if err != nil {
		return nil, err
	}
	res := make([]Cell, len(outs))
	for i, o := range outs {
		cell, ok := o.Value.(Cell)
		if !ok {
			return nil, fmt.Errorf("expt: grid cell %d returned %T", i, o.Value)
		}
		res[i] = cell
	}
	return res, nil
}

// NewCellCache builds a sweep cache for grid cells: maxEntries in memory
// (non-positive selects the default), plus a disk layer under dir when it
// is non-empty.
func NewCellCache(maxEntries int, dir string) (*sweep.Cache, error) {
	return sweep.NewCache(maxEntries, dir, sweep.Codec{
		Encode: func(v any) ([]byte, error) {
			cell, ok := v.(Cell)
			if !ok {
				return nil, fmt.Errorf("expt: caching %T, want Cell", v)
			}
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(cell); err != nil {
				return nil, err
			}
			return b.Bytes(), nil
		},
		Decode: func(b []byte) (any, error) {
			var cell Cell
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&cell); err != nil {
				return nil, err
			}
			return cell, nil
		},
	})
}
