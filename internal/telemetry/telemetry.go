// Package telemetry is the zero-dependency observation layer for the
// simulator and the sweep engine: counters, gauges, histograms, timed spans,
// and a bounded structured run-event stream, collected into a Registry and
// exported as Prometheus text or a JSON snapshot (export.go) or served over
// HTTP alongside expvar and pprof (serve.go).
//
// The design rule is that disabled telemetry must cost one branch on the hot
// path and zero allocations. Every lookup on a nil *Registry returns a nil
// instrument, and every method on a nil instrument is a no-op, so
// instrumented code resolves its instruments once —
//
//	quanta := reg.Counter(MKernelQuanta) // nil reg → nil counter
//	...
//	quanta.Inc() // one nil check when telemetry is off
//
// — and never guards call sites. All instruments are safe for concurrent
// use; a single Registry is shared by every worker of a parallel sweep and
// simply aggregates.
//
// Metric names may carry a Prometheus label block, e.g.
// `sweep_cells_total{result="cached"}`. The registry treats the full string
// as the identity; the exporters group names by their base (the part before
// '{') so labelled series share one TYPE declaration.
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical metric names. Instrumentation sites and the pre-registration
// done by servers use these constants so the exposition never drifts.
const (
	// internal/sim
	MSimEventsFired = "sim_events_fired_total"
	MSimQueueDepth  = "sim_event_queue_depth"
	// internal/kernel
	MKernelQuanta       = "kernel_quanta_total"
	MKernelQuantumUtil  = "kernel_quantum_util"
	MKernelIdleDispatch = "kernel_idle_dispatch_total"
	MKernelSpeedChanges = "kernel_speed_changes_total"
	MKernelFailedSpeed  = "kernel_failed_speed_changes_total"
	MKernelVoltChanges  = "kernel_voltage_changes_total"
	MKernelStallMicros  = "kernel_stall_microseconds_total"
	// internal/policy
	MPolicyScaleUp       = `policy_decisions_total{decision="up"}`
	MPolicyScaleDown     = `policy_decisions_total{decision="down"}`
	MPolicyHold          = `policy_decisions_total{decision="hold"}`
	MWatchdogOscillation = `policy_watchdog_trips_total{kind="oscillation"}`
	MWatchdogPegging     = `policy_watchdog_trips_total{kind="pegging"}`
	MWatchdogMissStreak  = `policy_watchdog_trips_total{kind="missstreak"}`
	MWatchdogSafeMode    = "policy_watchdog_safe_mode"
	// internal/sweep
	MSweepWorkersBusy   = "sweep_workers_busy"
	MSweepWorkersPeak   = "sweep_workers_busy_peak"
	MSweepCellsRun      = `sweep_cells_total{result="run"}`
	MSweepCellsCached   = `sweep_cells_total{result="cached"}`
	MSweepCellsFailed   = `sweep_cells_total{result="failed"}`
	MSweepCellsReplayed = `sweep_cells_total{result="replayed"}`
	MSweepCellSeconds   = "sweep_cell_seconds"
	MSweepCellRetries   = "sweep_cell_retries_total"
	MSweepCellDeadline  = "sweep_cell_deadline_total"
	MCacheHits          = "sweep_cache_hits_total"
	MCacheMisses        = "sweep_cache_misses_total"
	MCacheDiskHits      = "sweep_cache_disk_hits_total"
	MCacheCorrupt       = "sweep_cache_corrupt_total"
	MJournalCommits     = "sweep_journal_commits_total"
	MJournalErrors      = "sweep_journal_errors_total"
	MJournalRecovered   = "sweep_journal_recovered_cells"
	MJournalTornTail    = "sweep_journal_torn_tail"
	MJournalCompacted   = "sweep_journal_compacted"
	MCacheGetHitSecs    = `sweep_cache_get_seconds{result="hit"}`
	MCacheGetMissSecs   = `sweep_cache_get_seconds{result="miss"}`
	MCacheGetDiskSecs   = `sweep_cache_get_seconds{result="disk"}`
	MCachePutSecs       = "sweep_cache_put_seconds"
	// internal/daq
	MDAQCaptures        = "daq_captures_total"
	MDAQSamples         = "daq_samples_total"
	MDAQSamplesDropped  = "daq_samples_dropped_total"
	MDAQSamplesGlitched = "daq_samples_glitched_total"
)

// UtilBuckets are the histogram bounds for per-quantum utilization in
// [0, 1]: ten equal bins.
var UtilBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// SecondsBuckets are the default bounds for wall-clock latency histograms,
// exponential from 1 µs to ~10 s.
var SecondsBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// EventCap bounds the structured run-event stream; once full, the oldest
// events are dropped.
const EventCap = 1024

// Counter is a monotonically increasing integer metric. All methods are
// nil-safe no-ops so disabled telemetry costs one branch.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark (peak pool occupancy, say).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge reading (zero on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into buckets with fixed upper bounds (an
// implicit +Inf bucket catches the rest) and tracks the sum and count, in
// the Prometheus style.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample. NaN observations are ignored: a NaN can only
// come from an upstream measurement bug, and folding it into the sum would
// poison every later export.
func (h *Histogram) Observe(x float64) {
	if h == nil || math.IsNaN(x) {
		return
	}
	i := 0
	for i < len(h.bounds) && x > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the wall-clock seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns how many samples have been observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot copies the histogram's state (bounds are shared, immutable).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram, JSON-friendly.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"` // upper bounds; a final +Inf bucket is implicit
	Counts []uint64  `json:"counts"` // per-bucket counts, len(Bounds)+1
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Timer is a histogram of wall-clock span durations in seconds.
type Timer struct {
	h *Histogram
}

// Start opens a span. On a nil timer the span is inert and Stop is free.
func (t *Timer) Start() Span {
	if t == nil || t.h == nil {
		return Span{}
	}
	return Span{h: t.h, t0: time.Now()}
}

// Span is one in-flight timed section.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// Stop records the span's duration. Inert spans (from a nil timer) do
// nothing.
func (s Span) Stop() {
	if s.h == nil {
		return
	}
	s.h.ObserveSince(s.t0)
}

// Field is one key/value pair of a structured event.
type Field struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// F builds a Field.
func F(key, value string) Field { return Field{Key: key, Value: value} }

// Event is one entry of the structured run-event stream.
type Event struct {
	Seq    uint64    `json:"seq"`
	Wall   time.Time `json:"wall"`
	Name   string    `json:"name"`
	Fields []Field   `json:"fields,omitempty"`
}

// Registry holds every instrument by name. The zero value is not usable;
// call New. A nil *Registry is the disabled layer: every lookup returns nil
// and every emit is dropped.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	seq    uint64
	events []Event // ring, capacity EventCap
	head   int     // index of the oldest event once the ring wrapped
	full   bool
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (registering on first use) the named counter, or nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge, or nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with the
// given bucket upper bounds, or nil on a nil registry. A name registered
// earlier keeps its original bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Timer returns a wall-clock span timer over the named seconds histogram
// (SecondsBuckets bounds), or a nil-safe inert timer on a nil registry.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	return &Timer{h: r.Histogram(name, SecondsBuckets)}
}

// Emit appends one structured event to the bounded run-event stream. On a
// nil registry the event is dropped. Once EventCap events are buffered the
// oldest is overwritten.
func (r *Registry) Emit(name string, fields ...Field) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	e := Event{Seq: r.seq, Wall: time.Now(), Name: name, Fields: fields}
	if len(r.events) < EventCap {
		r.events = append(r.events, e)
		return
	}
	r.full = true
	r.events[r.head] = e
	r.head = (r.head + 1) % len(r.events)
}

// Events returns the buffered run events, oldest first.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.events))
	if r.full {
		out = append(out, r.events[r.head:]...)
		out = append(out, r.events[:r.head]...)
	} else {
		out = append(out, r.events...)
	}
	return out
}
