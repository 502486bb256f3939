package clocksched

import (
	"context"
	"fmt"
	"io"

	"clocksched/internal/telemetry"
)

// Telemetry is a live metrics registry for the simulator and sweep engine.
// Attach one to a Config or SweepConfig and every layer underneath — event
// engine, kernel, policy, DAQ, worker pool, result cache — streams counters,
// gauges, and latency histograms into it while the run is in flight.
//
// Telemetry is purely observational: results are bit-identical with and
// without it, and a nil *Telemetry disables instrumentation at a cost of one
// nil check per hot-path operation (zero allocations).
//
// A Telemetry may be shared across concurrent runs and sweeps; all methods
// are safe for concurrent use. Serve exposes it over HTTP for scraping:
//
//	tel := clocksched.NewTelemetry()
//	addr, _ := tel.Serve("localhost:8080")
//	defer tel.Close()
//	res, err := clocksched.Sweep(ctx, clocksched.SweepConfig{..., Telemetry: tel})
//	// http://localhost:8080/metrics while the sweep runs
type Telemetry struct {
	reg *telemetry.Registry
	srv *telemetry.Server
}

// NewTelemetry creates an enabled telemetry registry. The stable metric set
// — pool occupancy, cache traffic, policy decision counts, quantum
// utilization — is pre-registered so an exporter scrape sees every series
// from the first request, before any run has touched them.
func NewTelemetry() *Telemetry {
	reg := telemetry.New()
	// Pre-register the stable series with their zero values. Histograms
	// must be registered here anyway so later lookups agree on bucket
	// layout; counters and gauges just make /metrics complete from scrape
	// one.
	for _, name := range []string{
		telemetry.MSimEventsFired,
		telemetry.MKernelQuanta,
		telemetry.MKernelIdleDispatch,
		telemetry.MKernelSpeedChanges,
		telemetry.MKernelFailedSpeed,
		telemetry.MKernelVoltChanges,
		telemetry.MKernelStallMicros,
		telemetry.MPolicyScaleUp,
		telemetry.MPolicyScaleDown,
		telemetry.MPolicyHold,
		telemetry.MWatchdogOscillation,
		telemetry.MWatchdogPegging,
		telemetry.MWatchdogMissStreak,
		telemetry.MSweepCellsRun,
		telemetry.MSweepCellsCached,
		telemetry.MSweepCellsFailed,
		telemetry.MSweepCellsReplayed,
		telemetry.MSweepCellRetries,
		telemetry.MSweepCellDeadline,
		telemetry.MCacheHits,
		telemetry.MCacheMisses,
		telemetry.MCacheDiskHits,
		telemetry.MCacheCorrupt,
		telemetry.MJournalCommits,
		telemetry.MJournalErrors,
		telemetry.MDAQCaptures,
		telemetry.MDAQSamples,
		telemetry.MDAQSamplesDropped,
		telemetry.MDAQSamplesGlitched,
	} {
		reg.Counter(name)
	}
	reg.Gauge(telemetry.MSimQueueDepth)
	reg.Gauge(telemetry.MWatchdogSafeMode)
	reg.Gauge(telemetry.MSweepWorkersBusy)
	reg.Gauge(telemetry.MSweepWorkersPeak)
	reg.Gauge(telemetry.MJournalRecovered)
	reg.Gauge(telemetry.MJournalTornTail)
	reg.Gauge(telemetry.MJournalCompacted)
	reg.Histogram(telemetry.MKernelQuantumUtil, telemetry.UtilBuckets)
	reg.Timer(telemetry.MSweepCellSeconds)
	reg.Histogram(telemetry.MCacheGetHitSecs, telemetry.SecondsBuckets)
	reg.Histogram(telemetry.MCacheGetMissSecs, telemetry.SecondsBuckets)
	reg.Histogram(telemetry.MCacheGetDiskSecs, telemetry.SecondsBuckets)
	reg.Histogram(telemetry.MCachePutSecs, telemetry.SecondsBuckets)
	return &Telemetry{reg: reg}
}

// TelemetryOver wraps an existing instrument registry, so an in-module
// caller that already holds one — the experiment environment — can hand it
// to a Config or SweepConfig. Nil-preserving: a nil registry yields a nil
// *Telemetry, instrumentation off. Unlike NewTelemetry it pre-registers
// nothing.
func TelemetryOver(reg *telemetry.Registry) *Telemetry {
	if reg == nil {
		return nil
	}
	return &Telemetry{reg: reg}
}

// registry unwraps to the internal registry; nil-safe, so a nil *Telemetry
// flows through the stack as "instrumentation off".
func (t *Telemetry) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Registry exposes the underlying instrument registry for in-module
// consumers — the sweep service scopes one registry per job and merges
// them onto a single /metrics page via telemetry.WritePrometheusAll.
// Nil-safe: a nil *Telemetry yields a nil registry, which every registry
// method accepts as "instrumentation off".
func (t *Telemetry) Registry() *telemetry.Registry {
	return t.registry()
}

// Serve starts an HTTP listener on addr (e.g. ":8080", or ":0" for an
// ephemeral port) exposing /metrics (Prometheus text format),
// /metrics.json, /debug/vars (expvar), and /debug/pprof. It returns the
// bound address. One listener per Telemetry; Close stops it.
func (t *Telemetry) Serve(addr string) (string, error) {
	if t.srv != nil {
		return "", fmt.Errorf("clocksched: telemetry already serving on %s", t.srv.Addr())
	}
	srv, err := telemetry.Serve(addr, t.reg)
	if err != nil {
		return "", err
	}
	t.srv = srv
	return srv.Addr(), nil
}

// Addr returns the bound listener address, or "" when not serving.
func (t *Telemetry) Addr() string {
	if t == nil || t.srv == nil {
		return ""
	}
	return t.srv.Addr()
}

// Close stops the HTTP listener (if Serve started one) immediately,
// dropping in-flight scrapes. Prefer Shutdown when a bounded graceful drain
// is wanted. The registry itself keeps accepting instrumentation; only the
// exporter goes away.
func (t *Telemetry) Close() error {
	if t == nil || t.srv == nil {
		return nil
	}
	err := t.srv.Close()
	t.srv = nil
	return err
}

// Shutdown drains the HTTP listener gracefully: no new scrapes are
// accepted, and in-flight requests finish or run out of ctx. Safe on a nil
// Telemetry and when nothing is serving.
func (t *Telemetry) Shutdown(ctx context.Context) error {
	if t == nil || t.srv == nil {
		return nil
	}
	err := t.srv.Shutdown(ctx)
	t.srv = nil
	return err
}

// WritePrometheus writes a point-in-time snapshot in the Prometheus text
// exposition format — the same bytes the /metrics endpoint serves.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.reg.WritePrometheus(w)
}

// WriteJSON writes a point-in-time JSON snapshot of every metric and the
// most recent run events — the same bytes the /metrics.json endpoint
// serves.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.reg.WriteJSON(w)
}

// RunTelemetry is the per-run activity summary published on Result. The
// fields derive from the simulation's virtual-time accounting only, so they
// are as deterministic as the rest of the Result: equal seeds produce equal
// RunTelemetry, whatever the worker count or wall-clock conditions.
type RunTelemetry struct {
	// EventsFired counts discrete events the simulation engine dispatched.
	EventsFired uint64
	// Quanta counts 10 ms scheduling quanta the kernel accounted.
	Quanta int
	// ScaleUps and ScaleDowns count the interval policy's speed decisions
	// that moved the clock; both are zero for constant policies.
	ScaleUps   int
	ScaleDowns int
	// DAQSamples counts power samples the measurement capture integrated.
	DAQSamples int
}
