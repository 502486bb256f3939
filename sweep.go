package clocksched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"clocksched/internal/sim"
	"clocksched/internal/sweep"
)

// SweepConfig describes a batch of measurement runs: either the full cross
// product of the Workloads × Policies × Seeds axes, or an explicit list of
// Cells. The batch fans across a bounded worker pool; because every run is
// a self-contained deterministic simulation, the merged results are
// bit-identical to running the same cells in a serial loop, whatever the
// worker count or completion order.
type SweepConfig struct {
	// Workloads, Policies, and Seeds are the grid axes; the sweep runs
	// their cross product in workload-major order (all policies and seeds
	// of the first workload, then the second, …). An empty axis
	// contributes its single zero value, which Run resolves to its
	// documented default (MPEG, constant full speed, seed 0).
	Workloads []Workload
	Policies  []Policy
	Seeds     []uint64

	// Duration, DeadlineSlack, CaptureTrace, Faults, and Watchdog apply
	// to every axis-built cell, with the same semantics as in Config.
	Duration      time.Duration
	DeadlineSlack time.Duration
	CaptureTrace  bool
	Faults        *FaultPlan
	Watchdog      *WatchdogConfig

	// Cells, when non-empty, is the explicit grid; the axes and the
	// shared settings above are ignored, and each cell's own fields
	// govern its run. Use this for irregular grids.
	Cells []Config

	// Workers bounds the concurrency; values < 1 select GOMAXPROCS.
	Workers int
	// FailFast aborts the sweep at the first cell error, cancelling
	// outstanding cells. The default runs every cell and reports all
	// failures, both per cell and joined in the returned error.
	FailFast bool
	// Cache, when non-nil, serves repeated cells from the
	// content-addressed result cache instead of re-simulating them.
	Cache *SweepCache
	// Progress, when non-nil, is called after each cell completes (run,
	// cache hit, or failure) with the number done and the grid total. A
	// resumed sweep reports its journal-replayed cells in one initial call,
	// so done-counts start at the replayed count instead of zero. Calls
	// may run concurrently and out of order, but each carries a distinct
	// done count and the final one reports done == total; the callback runs
	// outside the pool's internal lock, so it may block — or run further
	// sweeps — without stalling the workers.
	Progress func(done, total int)
	// Telemetry, when non-nil, instruments the worker pool, the cache, and
	// every cell's simulation stack. Purely observational: cell results and
	// cache keys are unaffected.
	Telemetry *Telemetry

	// Journal, when non-empty, is the path of the sweep's crash-safe
	// write-ahead journal. Each completed cell is durably committed (key +
	// result hash, fsynced) the moment it finishes, so a sweep killed
	// mid-run can be relaunched with Resume and replay the committed cells
	// from the disk cache instead of re-simulating them. Requires Cache —
	// the journal records hashes; the cache holds the bytes.
	Journal string
	// Resume replays a previous run's Journal instead of truncating it.
	// Cells whose journal hash matches the cached bytes are served without
	// re-simulation; everything else (including a torn journal tail from
	// the crash) re-runs, so the final SweepResult is byte-identical to an
	// uninterrupted sweep.
	Resume bool
	// CellTimeout, when positive, bounds each cell attempt's wall time.
	// The deadline is enforced at the simulation's quantum boundaries via
	// context cancellation; a cell that blows it fails with a wrapped
	// context.DeadlineExceeded and is not retried.
	CellTimeout time.Duration
	// Retries is the per-cell retry budget for transient failures —
	// injected cell aborts, or any error exposing Transient() bool — with
	// seeded exponential backoff. Zero disables retries; non-transient
	// failures are never retried.
	Retries int
	// RetryBase is the first backoff delay, doubling per attempt (jittered,
	// capped at 5s); zero selects 100ms.
	RetryBase time.Duration
	// FS, when non-nil, routes the sweep's durable writes — journal
	// appends and fsyncs, and the journal compaction rewrite — through an
	// injectable filesystem surface. It exists for crash/chaos testing
	// (the sweep service threads its disk-fault injector here); production
	// sweeps leave it nil, the real filesystem. Like Workers and Cache it
	// is a runtime resource, excluded from cache keys and SweepSpecs.
	FS DiskFS
}

// DiskFS is the injectable filesystem surface for durable sweep state:
// writes, fsyncs, and renames. The internal chaos-test disk injector
// implements it; so does any test double. A nil DiskFS always means the
// real filesystem.
type DiskFS interface {
	Write(f *os.File, p []byte) (int, error)
	Sync(f *os.File) error
	Rename(oldpath, newpath string) error
}

// SweepCell is one completed cell of a sweep.
type SweepCell struct {
	// Config is the fully-resolved cell configuration.
	Config Config
	// Result is the cell's measurement; nil when Err is non-nil.
	Result *Result
	// Err is the cell's failure, or sweep.ErrSkipped semantics: cells the
	// sweep aborted before running carry an error too.
	Err error
	// Cached reports that Result was served from the cache rather than
	// simulated.
	Cached bool
	// Replayed reports that the cell was committed by a previous
	// (interrupted) run's journal and served from the cache after hash
	// verification; implies Cached.
	Replayed bool
	// Attempts counts how many times the cell actually simulated: zero for
	// cached/replayed/skipped cells, more than one when transient failures
	// were retried.
	Attempts int
}

// SweepResult holds every cell of a completed sweep in grid order.
type SweepResult struct {
	// Cells is indexed by grid position: for axis-built sweeps,
	// (wi*len(Policies)+pi)*len(Seeds)+si; for explicit grids, the Cells
	// slice index.
	Cells []SweepCell

	// Telemetry summarizes the worker pool's activity over the sweep.
	Telemetry SweepTelemetry

	nw, np, ns int // axis dimensions; all zero for explicit grids
}

// SweepTelemetry is the pool activity summary of one completed sweep.
type SweepTelemetry struct {
	// Workers is the resolved pool size the sweep ran with.
	Workers int
	// PeakBusy is the most workers ever simultaneously running cells.
	PeakBusy int
	// Ran, Cached, and Failed partition the completed cells: simulated,
	// served from the cache, and errored. Skipped counts cells abandoned
	// by a fail-fast abort or context cancellation.
	Ran     int
	Cached  int
	Failed  int
	Skipped int
	// Replayed is the subset of Cached committed by a previous run's
	// journal — the cells a resumed sweep did not have to re-simulate.
	Replayed int
	// Retried counts extra attempts spent re-running transient failures.
	Retried int
}

// CellAt returns the cell at the given axis indices of an axis-built
// sweep, or nil when out of range or when the sweep ran an explicit grid.
func (r *SweepResult) CellAt(wi, pi, si int) *SweepCell {
	if wi < 0 || wi >= r.nw || pi < 0 || pi >= r.np || si < 0 || si >= r.ns {
		return nil
	}
	return &r.Cells[(wi*r.np+pi)*r.ns+si]
}

// SweepCellError is one failed cell of a completed sweep, as reported by
// SweepResult.Errors.
type SweepCellError struct {
	// Index is the cell's grid position.
	Index int
	// Workload, Policy, and Seed identify the cell's configuration.
	Workload string
	Policy   string
	Seed     uint64
	// Attempts counts how many times the cell simulated before giving up.
	Attempts int
	// TimedOut marks a blown per-cell deadline budget.
	TimedOut bool
	// Transient marks a failure the retry layer classified as retryable —
	// the retry budget was exhausted without a success.
	Transient bool
	// Skipped marks a cell that never ran (fail-fast abort or context
	// cancellation).
	Skipped bool
	// Err is the cell's error.
	Err error
}

// Errors reports every failed cell in grid order — deterministic however
// the workers interleaved — classifying each failure so callers can triage
// a partial sweep (retry-exhausted vs timed out vs skipped) without string
// matching. An all-green sweep returns nil.
func (r *SweepResult) Errors() []SweepCellError {
	var out []SweepCellError
	for i, c := range r.Cells {
		if c.Err == nil {
			continue
		}
		out = append(out, SweepCellError{
			Index:     i,
			Workload:  string(c.Config.Workload),
			Policy:    c.Config.Policy.Name(),
			Seed:      c.Config.Seed,
			Attempts:  c.Attempts,
			TimedOut:  errors.Is(c.Err, context.DeadlineExceeded),
			Transient: sweep.IsTransient(c.Err),
			Skipped:   errors.Is(c.Err, sweep.ErrSkipped),
			Err:       c.Err,
		})
	}
	return out
}

// SweepStats aggregates a sweep's outcome.
type SweepStats struct {
	Cells  int // grid size
	Failed int // cells that errored or were skipped
	Cached int // cells served from the cache

	// Energy statistics over the successful cells.
	MinEnergyJoules  float64
	MeanEnergyJoules float64
	MaxEnergyJoules  float64
	// TotalMisses sums missed deadlines across successful cells.
	TotalMisses int
}

// Stats aggregates the sweep.
func (r *SweepResult) Stats() SweepStats {
	s := SweepStats{Cells: len(r.Cells)}
	sum := 0.0
	n := 0
	for _, c := range r.Cells {
		if c.Err != nil || c.Result == nil {
			s.Failed++
			continue
		}
		if c.Cached {
			s.Cached++
		}
		e := c.Result.EnergyJoules
		if n == 0 || e < s.MinEnergyJoules {
			s.MinEnergyJoules = e
		}
		if n == 0 || e > s.MaxEnergyJoules {
			s.MaxEnergyJoules = e
		}
		sum += e
		n++
		s.TotalMisses += c.Result.Misses
	}
	if n > 0 {
		s.MeanEnergyJoules = sum / float64(n)
	}
	return s
}

// grid expands the configuration into its cell list and axis dimensions.
func (cfg SweepConfig) grid() ([]Config, int, int, int) {
	if len(cfg.Cells) > 0 {
		cells := make([]Config, len(cfg.Cells))
		copy(cells, cfg.Cells)
		return cells, 0, 0, 0
	}
	ws := cfg.Workloads
	if len(ws) == 0 {
		ws = []Workload{""}
	}
	ps := cfg.Policies
	if len(ps) == 0 {
		ps = []Policy{{}}
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	cells := make([]Config, 0, len(ws)*len(ps)*len(seeds))
	for _, w := range ws {
		for _, p := range ps {
			for _, s := range seeds {
				cells = append(cells, Config{
					Workload:      w,
					Policy:        p,
					Seed:          s,
					Duration:      cfg.Duration,
					DeadlineSlack: cfg.DeadlineSlack,
					CaptureTrace:  cfg.CaptureTrace,
					Faults:        cfg.Faults,
					Watchdog:      cfg.Watchdog,
				})
			}
		}
	}
	return cells, len(ws), len(ps), len(seeds)
}

// GridSize reports how many cells the sweep will run: the axis cross
// product, or the explicit Cells length. Zero means an empty (invalid)
// grid.
func (cfg SweepConfig) GridSize() int {
	cells, _, _, _ := cfg.grid()
	return len(cells)
}

// Validate checks the whole sweep configuration eagerly — every cell of
// the expanded grid plus the durability and retry knobs — and reports all
// problems at once via errors.Join. Sweep calls it before anything runs;
// the sweep service calls it at admission so a malformed job is rejected
// at submit time instead of after it is queued.
func (cfg SweepConfig) Validate() error {
	cells, _, _, _ := cfg.grid()
	var verrs []error
	if len(cells) == 0 {
		verrs = append(verrs, fmt.Errorf("clocksched: empty sweep grid"))
	}
	for i, c := range cells {
		if err := c.Validate(); err != nil {
			verrs = append(verrs, fmt.Errorf("cell %d (%s, %s): %w",
				i, c.withDefaults().Workload, c.withDefaults().Policy.Name(), err))
		}
	}
	if cfg.Journal != "" && cfg.Cache == nil {
		verrs = append(verrs, fmt.Errorf("clocksched: Journal requires Cache — the journal records result hashes, the cache holds the bytes"))
	}
	if cfg.Resume && cfg.Journal == "" {
		verrs = append(verrs, fmt.Errorf("clocksched: Resume requires Journal"))
	}
	if cfg.CellTimeout < 0 {
		verrs = append(verrs, fmt.Errorf("clocksched: negative CellTimeout %v", cfg.CellTimeout))
	}
	if cfg.Retries < 0 {
		verrs = append(verrs, fmt.Errorf("clocksched: negative Retries %d", cfg.Retries))
	}
	if cfg.RetryBase < 0 {
		verrs = append(verrs, fmt.Errorf("clocksched: negative RetryBase %v", cfg.RetryBase))
	}
	return errors.Join(verrs...)
}

// Table2Config is the paper's Table 2 grid as a sweep: the 60-second MPEG
// workload under three constant-speed baselines and PAST peg-peg without
// and with voltage scaling, each built through the policy registry, over n
// consecutive seeds starting at seed. FailFast is set, since one failed
// cell spoils a confidence interval.
func Table2Config(seed uint64, n int) (SweepConfig, error) {
	if n < 1 {
		return SweepConfig{}, fmt.Errorf("clocksched: Table2Config needs at least one seed, got %d", n)
	}
	var policies []Policy
	for _, ref := range []PolicyRef{
		{Name: "constant", Params: map[string]float64{"mhz": 206.4}},
		{Name: "constant", Params: map[string]float64{"mhz": 132.7}},
		{Name: "constant", Params: map[string]float64{"mhz": 132.7, "low_voltage": 1}},
		{Name: "past-peg-peg"},
		{Name: "past-peg-peg", Params: map[string]float64{"voltage_scale": 1}},
	} {
		p, err := ref.Build()
		if err != nil {
			return SweepConfig{}, err
		}
		policies = append(policies, p)
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = seed + uint64(i)
	}
	return SweepConfig{
		Workloads: []Workload{MPEG},
		Policies:  policies,
		Seeds:     seeds,
		FailFast:  true,
	}, nil
}

// Sweep executes the batch. Every cell is validated before anything runs,
// so a malformed grid fails fast with every problem joined into one error.
//
// Under FailFast a cell failure aborts the sweep and Sweep returns (nil,
// err). Otherwise every cell runs, per-cell failures land in
// SweepResult.Cells[i].Err, and the returned error is their errors.Join —
// a non-nil SweepResult alongside a non-nil error means a partial sweep.
// Cancelling the context aborts outstanding cells at their next quantum
// boundary; the returned error then satisfies errors.Is(err, ctx.Err()).
func Sweep(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cells, nw, np, ns := cfg.grid()

	var jr *sweep.CellJournal
	if cfg.Journal != "" {
		var err error
		jr, err = sweep.OpenCellJournalFS(cfg.Journal, cfg.Resume, cfg.FS)
		if err != nil {
			return nil, err
		}
		defer jr.Close()
	}

	jobs := make([]sweep.Job, len(cells))
	for i, c := range cells {
		c := c
		// The cache key is computed before the telemetry registry is
		// attached and hashes named fields only, so instrumentation can
		// never split the cache.
		key := cacheKey(c)
		if c.Telemetry == nil {
			c.Telemetry = cfg.Telemetry
		}
		jobs[i] = sweep.Job{
			Key: key,
			Run: func(ctx context.Context) (any, error) {
				return RunContext(ctx, c)
			},
		}
	}
	var inner *sweep.Cache
	if cfg.Cache != nil {
		inner = cfg.Cache.inner
	}
	var pstats sweep.PoolStats
	outs, err := sweep.Run(ctx, jobs, sweep.Options{
		Workers:     cfg.Workers,
		FailFast:    cfg.FailFast,
		Cache:       inner,
		OnProgress:  cfg.Progress,
		Telemetry:   cfg.Telemetry.registry(),
		Stats:       &pstats,
		CellTimeout: cfg.CellTimeout,
		Retry:       sweep.RetryPolicy{Max: cfg.Retries, Base: cfg.RetryBase},
		Journal:     jr,
	})
	if cfg.FailFast && err != nil {
		return nil, err
	}
	res := &SweepResult{
		Cells: make([]SweepCell, len(cells)),
		Telemetry: SweepTelemetry{
			Workers:  pstats.Workers,
			PeakBusy: pstats.PeakBusy,
			Ran:      pstats.Ran,
			Cached:   pstats.Cached,
			Failed:   pstats.Failed,
			Skipped:  pstats.Skipped,
			Replayed: pstats.Replayed,
			Retried:  pstats.Retries,
		},
		nw: nw, np: np, ns: ns,
	}
	for i, o := range outs {
		cell := SweepCell{
			Config:   cells[i].withDefaults(),
			Err:      o.Err,
			Cached:   o.Cached,
			Replayed: o.Replayed,
			Attempts: o.Attempts,
		}
		if o.Err == nil {
			r, ok := o.Value.(*Result)
			if !ok {
				cell.Err = fmt.Errorf("clocksched: sweep cell %d returned %T", i, o.Value)
			} else {
				cell.Result = r
			}
		}
		res.Cells[i] = cell
	}
	return res, err
}

// SweepCache is a content-addressed cache of sweep cell results: a bounded
// in-memory LRU with an optional persistent on-disk layer. Keys hash the
// full cell configuration together with the simulation version, so any
// change to the simulation (a sim.Version bump) or to the cell spec misses
// cleanly rather than serving stale results. It is safe for concurrent use
// and can be shared across sweeps.
type SweepCache struct {
	inner *sweep.Cache
}

// SweepCacheStats counts cache traffic.
type SweepCacheStats struct {
	Hits     int // served from memory or disk
	DiskHits int // subset of Hits that came off disk
	Misses   int
	Corrupt  int   // corrupt disk entries quarantined (deleted) as misses
	Entries  int   // live in-memory entries
	Bytes    int64 // encoded bytes held in memory
}

// NewSweepCache builds a cache holding at most maxEntries results in
// memory (non-positive selects a default of 1024). A non-empty dir adds a
// persistent disk layer under it — one file per cell, written atomically —
// so repeated sweeps across process restarts skip already-measured cells.
func NewSweepCache(maxEntries int, dir string) (*SweepCache, error) {
	inner, err := sweep.NewCache(maxEntries, dir, sweep.Codec{
		Encode: func(v any) ([]byte, error) {
			r, ok := v.(*Result)
			if !ok {
				return nil, fmt.Errorf("clocksched: caching %T, want *Result", v)
			}
			return encodeResult(r)
		},
		Decode: func(b []byte) (any, error) {
			return decodeResult(b)
		},
	})
	if err != nil {
		return nil, err
	}
	return &SweepCache{inner: inner}, nil
}

// SetFS routes the cache's disk writes through an injectable filesystem
// surface (see DiskFS). Call it once, before the cache sees traffic; the
// sweep service does this at boot when chaos faults are armed. Production
// caches leave the default (real) filesystem.
func (c *SweepCache) SetFS(fs DiskFS) {
	c.inner.SetFS(fs)
}

// Stats reports the cache's traffic counters.
func (c *SweepCache) Stats() SweepCacheStats {
	s := c.inner.Stats()
	return SweepCacheStats{
		Hits:     s.Hits,
		DiskHits: s.DiskHits,
		Misses:   s.Misses,
		Corrupt:  s.Corrupt,
		Entries:  s.Entries,
		Bytes:    s.Bytes,
	}
}

// cacheKey is the content address of one cell's Result under the current
// simulation version.
func cacheKey(cfg Config) string {
	return cacheKeyAt(sim.Version, cfg)
}

// cacheKeyAt hashes the cell configuration under an explicit simulation
// version; bumping sim.Version therefore invalidates every existing entry.
func cacheKeyAt(version string, cfg Config) string {
	cfg = cfg.withDefaults()
	h := sim.NewHasherAt("clocksched.Result", version).
		Field("workload", cfg.Workload).
		Field("policy", cfg.Policy.cacheString()).
		Field("seed", cfg.Seed).
		Field("duration", int64(cfg.Duration)).
		Field("slack", int64(cfg.DeadlineSlack)).
		Field("trace", cfg.CaptureTrace)
	if cfg.Faults != nil {
		h.Field("faults", fmt.Sprintf("%+v", *cfg.Faults))
	}
	if cfg.Watchdog != nil {
		h.Field("watchdog", fmt.Sprintf("%+v", *cfg.Watchdog))
	}
	return h.Sum()
}

// residencyWire is one TimeAtMHz entry, flattened for canonical encoding.
type residencyWire struct {
	MHz float64
	D   time.Duration
}

// resultWire is the canonical serialization of a Result. Gob randomizes
// map iteration order, so TimeAtMHz is flattened into a slice sorted by
// frequency: the encoded bytes of equal Results are equal, which both the
// byte-identity determinism guarantee and the disk cache rely on.
type resultWire struct {
	EnergyJoules    float64
	AvgPowerWatts   float64
	PeakPowerWatts  float64
	MeanUtilization float64

	Deadlines   int
	Misses      int
	MaxLateness time.Duration

	ClockChanges   int
	VoltageChanges int
	StallTime      time.Duration

	ContextSwitches int
	IdleShare       float64

	Residency []residencyWire
	Trace     []UtilPoint

	Faults   *FaultReport
	Watchdog *WatchdogReport

	Telemetry RunTelemetry
}

// encodeResult serializes a Result canonically: equal Results produce
// equal bytes.
func encodeResult(r *Result) ([]byte, error) {
	w := newResultWire(r)
	return codec.encode(&w)
}

// newResultWire projects r onto its wire form, residency sorted by
// frequency.
func newResultWire(r *Result) resultWire {
	w := resultWire{
		EnergyJoules:    r.EnergyJoules,
		AvgPowerWatts:   r.AvgPowerWatts,
		PeakPowerWatts:  r.PeakPowerWatts,
		MeanUtilization: r.MeanUtilization,
		Deadlines:       r.Deadlines,
		Misses:          r.Misses,
		MaxLateness:     r.MaxLateness,
		ClockChanges:    r.ClockChanges,
		VoltageChanges:  r.VoltageChanges,
		StallTime:       r.StallTime,
		ContextSwitches: r.ContextSwitches,
		IdleShare:       r.IdleShare,
		Residency:       make([]residencyWire, 0, len(r.TimeAtMHz)),
		Trace:           r.trace,
		Faults:          r.Faults,
		Watchdog:        r.Watchdog,
		Telemetry:       r.Telemetry,
	}
	for mhz, d := range r.TimeAtMHz {
		w.Residency = append(w.Residency, residencyWire{MHz: mhz, D: d})
	}
	slices.SortFunc(w.Residency, func(a, b residencyWire) int { return cmp.Compare(a.MHz, b.MHz) })
	return w
}

// decodeResult reverses encodeResult.
func decodeResult(b []byte) (*Result, error) {
	var w resultWire
	if err := codec.decode(b, &w); err != nil {
		return nil, err
	}
	r := &Result{
		EnergyJoules:    w.EnergyJoules,
		AvgPowerWatts:   w.AvgPowerWatts,
		PeakPowerWatts:  w.PeakPowerWatts,
		MeanUtilization: w.MeanUtilization,
		Deadlines:       w.Deadlines,
		Misses:          w.Misses,
		MaxLateness:     w.MaxLateness,
		ClockChanges:    w.ClockChanges,
		VoltageChanges:  w.VoltageChanges,
		StallTime:       w.StallTime,
		ContextSwitches: w.ContextSwitches,
		IdleShare:       w.IdleShare,
		TimeAtMHz:       make(map[float64]time.Duration, len(w.Residency)),
		trace:           w.Trace,
		Faults:          w.Faults,
		Watchdog:        w.Watchdog,
		Telemetry:       w.Telemetry,
	}
	for _, e := range w.Residency {
		r.TimeAtMHz[e.MHz] = e.D
	}
	return r, nil
}
