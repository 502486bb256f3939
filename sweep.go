package clocksched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"clocksched/internal/journal"
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
type DiskFS = journal.FS

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

// eachCell calls fn with each cell of the grid in grid order — workload-
// major, with the shared settings copied onto every axis-built cell — and
// returns the axis dimensions: an empty axis contributes its single default
// value, and an explicit-cells grid is dimensionless (0, 0, 0). A nil fn
// only measures the grid.
func (cfg SweepConfig) eachCell(fn func(Config)) (nw, np, ns int) {
	if len(cfg.Cells) > 0 {
		if fn != nil {
			for _, c := range cfg.Cells {
				fn(c)
			}
		}
		return 0, 0, 0
	}
	nw, np, ns = max(1, len(cfg.Workloads)), max(1, len(cfg.Policies)), max(1, len(cfg.Seeds))
	if fn != nil {
		for i := range nw * np * ns {
			fn(cfg.axisCell(i, np, ns))
		}
	}
	return nw, np, ns
}

// axisCell is cell i, in grid order, of an axis-built grid with np
// policies and ns seeds: workload i/(np·ns), policy i/ns mod np, seed
// i mod ns, each the axis's zero value when the axis is empty, with the
// shared settings copied on.
func (cfg SweepConfig) axisCell(i, np, ns int) Config {
	c := Config{
		Duration:      cfg.Duration,
		DeadlineSlack: cfg.DeadlineSlack,
		CaptureTrace:  cfg.CaptureTrace,
		Faults:        cfg.Faults,
		Watchdog:      cfg.Watchdog,
	}
	if len(cfg.Workloads) > 0 {
		c.Workload = cfg.Workloads[i/(np*ns)]
	}
	if len(cfg.Policies) > 0 {
		c.Policy = cfg.Policies[i/ns%np]
	}
	if len(cfg.Seeds) > 0 {
		c.Seed = cfg.Seeds[i%ns]
	}
	return c
}

// GridSize reports how many cells the sweep will run: the axis cross
// product, or the explicit Cells length. Zero means an empty (invalid)
// grid.
func (cfg SweepConfig) GridSize() int {
	if len(cfg.Cells) > 0 {
		return len(cfg.Cells)
	}
	nw, np, ns := cfg.eachCell(nil)
	return nw * np * ns
}

// Validate checks the whole sweep configuration eagerly — every cell of
// the expanded grid plus the durability and retry knobs — and reports all
// problems at once via errors.Join. Sweep calls it before anything runs;
// the sweep service calls it at admission so a malformed job is rejected
// at submit time instead of after it is queued.
func (cfg SweepConfig) Validate() error {
	var verrs []error
	if cfg.GridSize() == 0 {
		verrs = append(verrs, fmt.Errorf("clocksched: empty sweep grid"))
	}
	i := 0
	cfg.eachCell(func(c Config) {
		if err := c.Validate(); err != nil {
			verrs = append(verrs, fmt.Errorf("cell %d (%s, %s): %w",
				i, c.withDefaults().Workload, c.withDefaults().Policy.Name(), err))
		}
		i++
	})
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
	var jr *sweep.CellJournal
	if cfg.Journal != "" {
		var err error
		jr, err = sweep.OpenCellJournal(cfg.Journal, cfg.Resume, cfg.FS)
		if err != nil {
			return nil, err
		}
		defer jr.Close()
	}

	res := &SweepResult{Cells: make([]SweepCell, cfg.GridSize())}
	i := 0
	res.nw, res.np, res.ns = cfg.eachCell(func(c Config) {
		res.Cells[i].Config = c.withDefaults()
		i++
	})
	cells := sweepCells{res: res, tel: cfg.Telemetry}
	// Only the cache and the journal read keys, and Validate refuses a
	// journal without a cache, so a cacheless sweep hashes none.
	if cfg.Cache != nil {
		var keys cellKeys
		cells.keys = make([]string, len(res.Cells))
		for i := range res.Cells {
			cells.keys[i] = keys.key(&res.Cells[i].Config)
		}
	}
	stats, err := sweep.Run(ctx, len(res.Cells), &cells, sweep.Options{
		Workers:     cfg.Workers,
		FailFast:    cfg.FailFast,
		Cache:       cfg.Cache,
		OnProgress:  cfg.Progress,
		Telemetry:   cfg.Telemetry.registry(),
		CellTimeout: cfg.CellTimeout,
		Retry:       sweep.RetryPolicy{Max: cfg.Retries, Base: cfg.RetryBase},
		Journal:     jr,
	})
	if cfg.FailFast && err != nil {
		return nil, err
	}
	res.Telemetry = SweepTelemetry(stats)
	return res, err
}

// sweepCells is the grid Sweep hands the worker pool: cell i runs from
// res.Cells[i].Config, and its Result, decoded from the cache or simulated,
// and its outcome land in res.Cells[i].
type sweepCells struct {
	res  *SweepResult
	keys []string // cache keys; nil for a cacheless sweep, which asks for none
	tel  *Telemetry
}

func (s *sweepCells) Key(i int) string { return s.keys[i] }

func (s *sweepCells) Run(ctx context.Context, i, attempt int) error {
	c := &s.res.Cells[i]
	run := c.Config
	if run.Telemetry == nil {
		run.Telemetry = s.tel
	}
	var err error
	c.Result, err = runAttempt(ctx, run, attempt)
	return err
}

func (s *sweepCells) Encode(i int) ([]byte, error) { return encodeResult(s.res.Cells[i].Result) }

func (s *sweepCells) Decode(i int, b []byte) (err error) {
	s.res.Cells[i].Result, err = decodeResult(b)
	return err
}

// Done records cell i's outcome. A failed or skipped cell keeps no Result,
// not even one a resume decoded from the cache and then refused for its
// hash.
func (s *sweepCells) Done(i int, o sweep.Outcome) {
	c := &s.res.Cells[i]
	c.Err, c.Cached, c.Replayed, c.Attempts = o.Err, o.Cached, o.Replayed, o.Attempts
	if o.Err != nil {
		c.Result = nil
	}
}

// SweepCache is a content-addressed cache of sweep cell results: a bounded
// in-memory LRU with an optional persistent on-disk layer. Keys hash the
// full cell configuration together with the simulation version, so any
// change to the simulation (a sim.Version bump) or to the cell spec misses
// cleanly rather than serving stale results. It is safe for concurrent use
// and can be shared across sweeps: cmd/experiments keeps one for every
// sweep-shaped experiment, so equal cells of two experiments share an
// entry.
type SweepCache = sweep.Cache

// SweepCacheStats counts cache traffic.
type SweepCacheStats = sweep.CacheStats

// NewSweepCache builds a cache holding at most maxEntries results in
// memory (non-positive selects a default of 1024). A non-empty dir adds a
// persistent disk layer under it — one file per cell, written atomically —
// so repeated sweeps across process restarts skip already-measured cells.
func NewSweepCache(maxEntries int, dir string) (*SweepCache, error) {
	return sweep.NewCache(maxEntries, dir)
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
	return hashCell(new(sim.Hasher), version, cfg, cfg.Policy.cacheString())
}

// cellKeys computes one sweep's cache keys, each equal to cacheKey of its
// cell. The cache key hashes named fields only, never the telemetry
// registry, so instrumentation can never split the cache. Every key is
// hashed on one Hasher, and each policy is rendered once per sweep: a run
// of cells with one policy — the seeds of a grid — reuses the last
// rendering, and a policy met before — the policies of a fleet device,
// repeated device after device — its memoized one.
type cellKeys struct {
	h            sim.Hasher
	prev         Policy
	prevRendered string // "" before the first key: no rendering is empty
	// rendered memoizes renderings by the policy's resolved fields. An
	// entry serves only a policy that renderSame says renders alike, so
	// equal refs behind different pointers share one entry, and a policy
	// that meets it without rendering alike — MHz 0 against -0, which are
	// equal map keys, or another ref — renders afresh and takes the entry
	// over. It is built on the sweep's first policy change.
	rendered map[Policy]renderedPolicy
}

// renderedPolicy is a policy with its cacheString.
type renderedPolicy struct {
	p Policy
	s string
}

// key returns cacheKey(*c).
func (k *cellKeys) key(c *Config) string {
	d := c.withDefaults()
	return hashCell(&k.h, sim.Version, d, k.render(d.Policy))
}

// render returns p.cacheString(), rendering it only if this sweep has not.
func (k *cellKeys) render(p Policy) string {
	switch {
	case k.prevRendered == "":
		k.prev, k.prevRendered = p, p.cacheString()
		return k.prevRendered
	case p.renderSame(k.prev):
		return k.prevRendered
	}
	if k.rendered == nil {
		// The first policy change: a sweep of one policy never builds the
		// memo.
		k.rendered = make(map[Policy]renderedPolicy)
		k.remember(renderedPolicy{p: k.prev, s: k.prevRendered})
	}
	e, ok := k.rendered[flatPolicy(p)]
	if !ok || !e.p.renderSame(p) {
		e = renderedPolicy{p: p, s: p.cacheString()}
		k.remember(e)
	}
	k.prev, k.prevRendered = p, e.s
	return e.s
}

// remember memoizes e. A NaN MHz is never equal to itself, so its entry
// could never be found again: it stays out of the map.
func (k *cellKeys) remember(e renderedPolicy) {
	if flat := flatPolicy(e.p); flat == flat {
		k.rendered[flat] = e
	}
}

// flatPolicy is p's resolved fields: p without its ref.
func flatPolicy(p Policy) Policy {
	p.Ref = nil
	return p
}

// hashCell hashes a defaulted cell configuration whose policy is already
// rendered by cacheString, on h, which it resets.
func hashCell(h *sim.Hasher, version string, cfg Config, policy string) string {
	h.Reset("clocksched.Result", version).
		Str("workload", string(cfg.Workload)).
		Str("policy", policy).
		Uint("seed", cfg.Seed).
		Int("duration", int64(cfg.Duration)).
		Int("slack", int64(cfg.DeadlineSlack)).
		Bool("trace", cfg.CaptureTrace)
	if cfg.Faults != nil {
		h.Str("faults", fmt.Sprintf("%+v", *cfg.Faults))
	}
	if cfg.Watchdog != nil {
		h.Str("watchdog", fmt.Sprintf("%+v", *cfg.Watchdog))
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
	w := newResultWire(r, nil)
	return codec.encode(&w)
}

// newResultWire projects r onto its wire form, residency sorted by
// frequency. The residency reuses residency's array if it is big enough.
func newResultWire(r *Result, residency []residencyWire) resultWire {
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
		Residency:       slices.Grow(residency[:0], len(r.TimeAtMHz)),
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
