// Package expt defines one reproduction harness per table and figure of the
// paper's evaluation. Each experiment returns a typed result with a text
// renderer that prints the same rows or series the paper reports;
// cmd/experiments regenerates everything, and the module-level benchmarks
// (bench_test.go) time each one.
package expt

import (
	"context"
	"fmt"

	"clocksched/internal/cpu"
	"clocksched/internal/daq"
	"clocksched/internal/fault"
	"clocksched/internal/kernel"
	"clocksched/internal/metrics"
	"clocksched/internal/policy"
	"clocksched/internal/power"
	"clocksched/internal/sim"
	"clocksched/internal/sweep"
	"clocksched/internal/telemetry"
	"clocksched/internal/workload"
)

// RunSpec describes one simulated measurement run: a workload on the Itsy
// under a clock scaling policy, instrumented by the DAQ.
type RunSpec struct {
	// Workload is one of "mpeg", "web", "chess", "editor", "rect", or
	// "feedback".
	Workload string
	// Seed drives workload jitter; distinct seeds stand in for the
	// paper's repeated measurement runs.
	Seed uint64
	// Duration bounds the run; zero uses the workload's natural length.
	Duration sim.Duration
	// Policy is the installed clock scaling module; nil runs at constant
	// initial settings.
	Policy kernel.SpeedPolicy
	// InitialStep and InitialV are the boot clock settings (zero values:
	// 59 MHz at 1.5 V — pass cpu.MaxStep explicitly for full speed).
	InitialStep cpu.Step
	InitialV    cpu.Voltage
	// Model overrides the power model (nil: the calibrated Itsy model).
	Model *power.Model

	// Faults, when non-nil and non-zero, injects hardware/driver failures
	// into the run. The injector draws from its own RNG stream derived
	// from Seed, so a nil plan is bit-identical to the pre-fault-layer
	// behaviour and the same seed+plan always injects the same schedule.
	Faults *fault.Plan
	// Watchdog, when non-nil, wraps Policy in a supervisory
	// policy.Watchdog with these settings (zero fields take defaults).
	Watchdog *policy.WatchdogConfig
	// WatchdogSlack is the lateness beyond which a completed deadline
	// counts against the watchdog's miss-streak detector; zero selects
	// 33 ms, matching the public API's default perceptual slack.
	WatchdogSlack sim.Duration
	// EventCap bounds the number of events the engine may fire; zero
	// derives a generous cap from the run length. The cap converts a
	// runaway schedule (a policy or fault interaction that would spin
	// forever at one instant) into a structured error instead of a hang.
	EventCap uint64
	// Cancel, when non-nil, is polled at every quantum boundary; a
	// non-nil return aborts the run with that error. RunContext wires a
	// context's Err here; it is excluded from spec hashing.
	Cancel func() error
	// Attempt is the zero-based retry attempt of this cell within a sweep.
	// It salts only the fault injector's cell-abort stream — attempt 0 is
	// bit-identical to the pre-retry behaviour, and successful runs are
	// identical across attempts — so it is excluded from spec hashing.
	// RunContext fills it from the context when the sweep's retry layer
	// annotated one.
	Attempt int
	// Telemetry, when non-nil, receives live instrumentation from the
	// engine, kernel, policy, and DAQ. Like Cancel it is observational
	// plumbing: it never influences the simulation and is excluded from
	// spec hashing.
	Telemetry *telemetry.Registry
	// Stream measures the run online instead of keeping its raw records:
	// the power timeline goes straight into a daq.Fold, and the kernel
	// keeps no per-quantum utilization log. The digest is bit-identical
	// either way, but the outcome's Kernel.Recorder() and Kernel.UtilLog()
	// then hold nothing to query. A plan with per-sample DAQ faults still
	// retains the timeline, since its readings must be drawn after the run.
	// Like Telemetry it never changes results and is excluded from spec
	// hashing.
	Stream bool
}

// RunOutcome bundles everything a measurement run produced.
type RunOutcome struct {
	Spec     RunSpec
	Workload workload.Workload
	Kernel   *kernel.Kernel
	// DAQ is the instrument's digest of the run: sample count, energy,
	// average and peak power. The per-sample array is no longer
	// materialized on this path (daq.Sample remains available for callers
	// that need raw readings).
	DAQ daq.Summary

	// Faults tallies what the injector actually did (zero when no plan
	// was given).
	Faults fault.Counts
	// Watchdog is the supervisory wrapper, when one was requested.
	Watchdog *policy.Watchdog

	// EnergyJ is the DAQ-integrated energy of the whole run, the
	// quantity Table 2 reports.
	EnergyJ float64
	// AvgPowerW is the mean sampled power.
	AvgPowerW float64
	// MeanUtil is the average per-quantum utilization in [0,1].
	MeanUtil float64
}

func buildWorkload(spec RunSpec) (workload.Workload, error) {
	switch spec.Workload {
	case "mpeg":
		cfg := workload.DefaultMPEGConfig()
		if spec.Seed != 0 {
			cfg.Seed = spec.Seed
		}
		if spec.Duration != 0 {
			cfg.Length = spec.Duration
		}
		// A deadline-consuming policy — DeadlineScheduler or any of the
		// zoo schedulers — gets the cooperative application model of the
		// paper's future-work section: the player advertises each frame's
		// work and due time through the DeadlineSink interface.
		if ds, ok := spec.Policy.(workload.DeadlineSink); ok {
			cfg.Deadlines = ds
		}
		return workload.NewMPEG(cfg)
	case "web":
		return workload.NewWeb(workload.DefaultWebTrace(spec.Seed + 1))
	case "chess":
		return workload.NewChess(workload.DefaultChessTrace(spec.Seed + 1))
	case "editor":
		return workload.NewTalkingEditor(workload.DefaultEditorTrace(spec.Seed + 1))
	case "rect":
		length := spec.Duration
		if length == 0 {
			length = 60 * sim.Second
		}
		return workload.NewRectWave(9, 1, length)
	case "feedback":
		cfg := workload.DefaultFeedbackConfig()
		if spec.Seed != 0 {
			cfg.Seed = spec.Seed
		}
		if spec.Duration != 0 {
			cfg.Length = spec.Duration
		}
		// Like MPEG, the control loop cooperates with a deadline-consuming
		// policy by advertising each sample's work and due time.
		if ds, ok := spec.Policy.(workload.DeadlineSink); ok {
			cfg.Deadlines = ds
		}
		return workload.NewFeedback(cfg)
	default:
		return nil, fmt.Errorf("expt: unknown workload %q", spec.Workload)
	}
}

// Run executes one measurement run.
func Run(spec RunSpec) (*RunOutcome, error) {
	return RunContext(context.Background(), spec)
}

// RunContext executes one measurement run under a context. Cancellation is
// observed at quantum boundaries — the simulation's only blocking-free
// preemption points — so an aborted run stops within one simulated quantum
// of the cancel and returns an error satisfying errors.Is(err, ctx.Err()).
func RunContext(ctx context.Context, spec RunSpec) (*RunOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Cancel == nil && ctx.Done() != nil {
		spec.Cancel = ctx.Err
	}
	if spec.Attempt == 0 {
		spec.Attempt = sweep.AttemptFromContext(ctx)
	}
	// The workload is built against the unwrapped policy: MPEG inspects
	// spec.Policy for a DeadlineScheduler to cooperate with, and that
	// check must see through to the real policy, so the watchdog wraps
	// only afterwards.
	w, err := buildWorkload(spec)
	if err != nil {
		return nil, err
	}
	length := spec.Duration
	if length == 0 {
		length = w.Duration()
	}

	inj, err := fault.NewInjectorAttempt(spec.Faults, spec.Seed, spec.Attempt)
	if err != nil {
		return nil, err
	}

	var wd *policy.Watchdog
	pol := spec.Policy
	if spec.Watchdog != nil {
		if pol == nil {
			return nil, fmt.Errorf("expt: watchdog requested but no policy to supervise")
		}
		wd, err = policy.NewWatchdog(pol, *spec.Watchdog)
		if err != nil {
			return nil, err
		}
		pol = wd
		slack := spec.WatchdogSlack
		if slack == 0 {
			slack = 33 * sim.Millisecond
		}
		w.Metrics().OnRecord = func(d metrics.Deadline) {
			wd.NoteDeadline(d.Late() > slack)
		}
	}

	eng := &sim.Engine{}
	cfg := kernel.DefaultConfig()
	cfg.InitialStep = spec.InitialStep
	cfg.InitialV = spec.InitialV
	cfg.Policy = pol
	cfg.Faults = inj
	cfg.CheckCancel = spec.Cancel
	cfg.Telemetry = spec.Telemetry
	cfg.EventCap = spec.EventCap
	cfg.RetainUtilLog = !spec.Stream
	if in, ok := pol.(interface {
		Instrument(*telemetry.Registry)
	}); ok && spec.Telemetry != nil {
		in.Instrument(spec.Telemetry)
	}
	spec.Telemetry.Emit("run.start",
		telemetry.F("workload", spec.Workload),
		telemetry.F("seed", fmt.Sprint(spec.Seed)))
	if cfg.EventCap == 0 {
		// A real run fires a handful of events per quantum plus a few per
		// workload burst; a thousand per simulated millisecond is two
		// orders of magnitude of headroom, yet a zero-delay spin still
		// hits it in microseconds of wall time.
		cfg.EventCap = uint64(length/sim.Millisecond)*1000 + 1_000_000
	}
	if spec.Model != nil {
		cfg.Model = *spec.Model
	}
	k, err := kernel.New(eng, cfg)
	if err != nil {
		return nil, err
	}
	dcfg := daq.DefaultConfig()
	dcfg.Faults = inj
	dcfg.Telemetry = spec.Telemetry
	var fold *daq.Fold
	if spec.Stream && !dcfg.SampleFaults() {
		if fold, err = daq.NewFold(0, length, dcfg); err != nil {
			return nil, err
		}
		if err := k.Recorder().Stream(fold.Add); err != nil {
			return nil, err
		}
	}
	if err := w.Install(k); err != nil {
		return nil, err
	}
	if err := k.Run(length); err != nil {
		return nil, err
	}

	var sum daq.Summary
	if fold != nil {
		sum, err = fold.Summary()
	} else {
		sum, err = daq.Integrate(k.Recorder(), 0, length, dcfg)
	}
	if err != nil {
		return nil, err
	}

	out := &RunOutcome{
		Spec:      spec,
		Workload:  w,
		Kernel:    k,
		DAQ:       sum,
		Faults:    inj.Counts(),
		Watchdog:  wd,
		EnergyJ:   sum.EnergyJ,
		AvgPowerW: sum.AvgPowerW,
		MeanUtil:  k.MeanUtil(),
	}
	spec.Telemetry.Emit("run.done",
		telemetry.F("workload", spec.Workload),
		telemetry.F("seed", fmt.Sprint(spec.Seed)),
		telemetry.F("energy_j", fmt.Sprintf("%.4f", out.EnergyJ)))
	return out, nil
}
