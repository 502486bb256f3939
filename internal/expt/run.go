// Package expt defines one reproduction harness per table and figure of the
// paper's evaluation. Each experiment returns a typed result with a text
// renderer that prints the same rows or series the paper reports;
// cmd/experiments regenerates everything, and the module-level benchmarks
// (bench_test.go) time each one. The experiments that are sweeps of
// clocksched.Config cells keep their row types and renderers here; their
// cells and folds are in internal/grids, above the root package.
package expt

import (
	"context"
	"fmt"
	"sync"

	"clocksched/internal/cpu"
	"clocksched/internal/daq"
	"clocksched/internal/fault"
	"clocksched/internal/kernel"
	"clocksched/internal/metrics"
	"clocksched/internal/policy"
	"clocksched/internal/power"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
	"clocksched/internal/trace"
	"clocksched/internal/workload"
)

// RunSpec describes one simulated measurement run: a workload on the Itsy
// under a clock scaling policy, instrumented by the DAQ.
type RunSpec struct {
	// Workload is one of "mpeg", "web", "chess", "editor", "rect", or
	// "feedback", or "mpeg-drop": the MPEG player under Pering et al.'s
	// elastic assumption, skipping the frames it cannot show on time.
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
	// Slack is the lateness beyond which a deadline is missed, for the
	// result and the watchdog; zero selects DefaultSlack (33 ms).
	Slack sim.Duration
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
	Attempt int
	// Telemetry, when non-nil, receives live instrumentation from the
	// engine, kernel, policy, and DAQ. Like Cancel it is observational
	// plumbing: it never influences the simulation and is excluded from
	// spec hashing.
	Telemetry *telemetry.Registry
	// Stream measures the run online instead of keeping its raw records:
	// the power timeline goes straight into the shell's daq.Fold, and the
	// kernel keeps no per-quantum utilization log. The digest is
	// bit-identical either way, DAQ sample faults included (the fold draws
	// them after the run, as Integrate does), but the outcome's
	// Kernel.Recorder() and Kernel.UtilLog() then hold nothing to query.
	// Like Telemetry it never changes results and is excluded from spec
	// hashing.
	Stream bool
}

// DefaultSlack is the perceptual slack for deadlines: half an MPEG frame.
// A deadline that completes later than this past its due time is missed.
const DefaultSlack = 33 * sim.Millisecond

// RunOutcome bundles everything a measurement run produced.
//
// A caller done with an outcome may Release it, handing its simulator —
// engine, kernel, power recorder, DAQ fold, input trace, workload, zoo job
// queue and the outcome itself — to the next run instead of the garbage
// collector. Release must be the outcome's last use: it clears every
// field, empties a zoo policy's job queue, and the next run refills the
// Kernel this outcome points at, its Workload and the trace that replays.
// A caller that keeps Kernel, Workload or anything read through them never
// calls Release; the outcome is then an ordinary garbage-collected value.
type RunOutcome struct {
	Spec     RunSpec
	Workload workload.Workload
	Kernel   *kernel.Kernel
	// DAQ is the instrument's digest of the run: sample count, energy
	// (the quantity Table 2 reports), average and peak power.
	DAQ daq.Summary

	// Faults tallies what the injector actually did (zero when no plan
	// was given).
	Faults fault.Counts
	// Watchdog is the supervisory wrapper, when one was requested.
	Watchdog *policy.Watchdog

	// sim is the shell this outcome lives in, when Release may pool it.
	sim *cellSim
}

// Release hands the outcome's simulator back for the next run; see
// RunOutcome. It clears every reference to this run — policy, workload and
// its programs, telemetry registry, fault injector, cancel hook — so the
// pooled simulator pins nothing of it. An outcome whose recorder and kernel
// retained the whole run (no RunSpec.Stream) is never pooled, since its
// timeline would stay pinned: Release then does nothing.
func (o *RunOutcome) Release() {
	if c := o.sim; c != nil {
		c.reset()
		cellSims.Put(c)
	}
}

// cellSim is one run's simulator shell: the engine, the kernel with its
// power recorder, the DAQ fold with its bound sink, the input-trace
// recorder, one workload instance per kind, the arrays of a zoo policy's
// job queue, and the outcome. Each run resets and renews them, keeping
// their allocations: the engine's queue and recycled nodes, the kernel's
// struct, power table, process and run-queue arrays and bound callbacks,
// the fold's segment buffer (used when the DAQ injects sample faults), the
// trace's event array, the workload's programs, replay cursor, event queue
// and deadline streams, and the zoo scheduler's jobs and BKP history,
// which the run's scheduler borrows. An interactive workload replays the
// shell's trace, so the trace lives exactly as long as the shell: the
// next run on a released shell regenerates it, and an outcome that is
// never released keeps its shell, trace and workload included. A
// sync.Pool rather than a shell per sweep worker carries them between
// runs, so every path to RunContext — sweeps, the fleet, sweepd, fabric
// peers, a single run — reuses them without plumbing a shell through the
// layers above.
type cellSim struct {
	eng  sim.Engine
	k    kernel.Kernel
	fold daq.Fold
	add  func(from, to sim.Time, watts float64) // fold.Add, bound once
	tr   trace.Recorder
	wl   workload.Instances
	zoo  policy.ZooQueue
	out  RunOutcome
}

var cellSims = sync.Pool{New: func() any { return new(cellSim) }}

// reset drops every reference the shell holds to its last run.
func (c *cellSim) reset() {
	c.eng.Reset()
	c.k.Reset()
	c.fold.Clear()
	c.wl.Clear()
	c.zoo.Reclaim()
	c.out = RunOutcome{}
}

// buildWorkload renews the shell's instance of spec's workload, generating
// an interactive workload's input trace into the shell's recorder.
func (c *cellSim) buildWorkload(spec RunSpec) (workload.Workload, error) {
	switch spec.Workload {
	case "mpeg", "mpeg-drop":
		cfg := workload.DefaultMPEGConfig()
		cfg.DropLateFrames = spec.Workload == "mpeg-drop"
		if spec.Seed != 0 {
			cfg.Seed = spec.Seed
		}
		if spec.Duration != 0 {
			cfg.Length = spec.Duration
		}
		// A deadline-consuming policy — the deadline scheduler or any
		// other zoo rule — gets the cooperative application model of the
		// paper's future-work section: the player advertises each frame's
		// work and due time through the DeadlineSink interface.
		if ds, ok := spec.Policy.(workload.DeadlineSink); ok {
			cfg.Deadlines = ds
		}
		return c.wl.MPEG(cfg)
	case "web":
		return c.wl.Web(workload.DefaultWebTraceInto(&c.tr, spec.Seed+1))
	case "chess":
		return c.wl.Chess(workload.DefaultChessTraceInto(&c.tr, spec.Seed+1))
	case "editor":
		return c.wl.TalkingEditor(workload.DefaultEditorTraceInto(&c.tr, spec.Seed+1))
	case "rect":
		length := spec.Duration
		if length == 0 {
			length = 60 * sim.Second
		}
		return c.wl.RectWave(9, 1, length)
	case "feedback":
		cfg := workload.DefaultFeedbackConfig()
		if spec.Seed != 0 {
			cfg.Seed = spec.Seed
		}
		if spec.Duration != 0 {
			cfg.Length = spec.Duration
		}
		cfg.Disturbances = workload.DefaultFeedbackTraceInto(&c.tr, cfg.Seed)
		// Like MPEG, the control loop cooperates with a deadline-consuming
		// policy by advertising each sample's work and due time.
		if ds, ok := spec.Policy.(workload.DeadlineSink); ok {
			cfg.Deadlines = ds
		}
		return c.wl.Feedback(cfg)
	default:
		return nil, fmt.Errorf("expt: unknown workload %q", spec.Workload)
	}
}

// RunContext executes one measurement run under a context. Cancellation is
// observed at quantum boundaries — the simulation's only blocking-free
// preemption points — so an aborted run stops within one simulated quantum
// of the cancel and returns an error satisfying errors.Is(err, ctx.Err()).
// The run takes a pooled simulator when one was released (see
// RunOutcome.Release); a failed run drops its simulator instead.
func RunContext(ctx context.Context, spec RunSpec) (*RunOutcome, error) {
	return cellSims.Get().(*cellSim).run(ctx, spec)
}

// run executes one measurement run on c, resetting it first: a run on a
// used shell is identical to one on a new shell, whatever the last run was.
func (c *cellSim) run(ctx context.Context, spec RunSpec) (*RunOutcome, error) {
	c.reset()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Cancel == nil && ctx.Done() != nil {
		spec.Cancel = ctx.Err
	}
	// The workload is built against the unwrapped policy: MPEG inspects
	// spec.Policy for a DeadlineSink to cooperate with, and that
	// check must see through to the real policy, so the watchdog wraps
	// only afterwards.
	w, err := c.buildWorkload(spec)
	if err != nil {
		return nil, err
	}
	slack := spec.Slack
	if slack == 0 {
		slack = DefaultSlack
	}
	w.Metrics().Slack = slack
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
		w.Metrics().OnRecord = func(d metrics.Deadline) {
			wd.NoteDeadline(d.Late() > slack)
		}
	}

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
	if spec.Telemetry != nil {
		spec.Telemetry.Emit("run.start",
			telemetry.F("workload", spec.Workload),
			telemetry.F("seed", fmt.Sprint(spec.Seed)))
	}
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
	k := &c.k
	if err := k.Renew(&c.eng, cfg); err != nil {
		return nil, err
	}
	dcfg := daq.DefaultConfig()
	dcfg.Faults = inj
	dcfg.Telemetry = spec.Telemetry
	var fold *daq.Fold
	if spec.Stream {
		if err := c.fold.Reset(0, length, dcfg); err != nil {
			return nil, err
		}
		fold = &c.fold
		if c.add == nil {
			c.add = fold.Add
		}
		if err := k.Recorder().Stream(c.add); err != nil {
			return nil, err
		}
	}
	// A zoo policy, wrapped or not, queues its jobs in the shell's arrays.
	zp := spec.Policy
	if wd, ok := zp.(*policy.Watchdog); ok {
		zp = wd.Inner()
	}
	if z, ok := zp.(*policy.ZooScheduler); ok {
		c.zoo.Lend(z)
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

	out := &c.out
	*out = RunOutcome{
		Spec:     spec,
		Workload: w,
		Kernel:   k,
		DAQ:      sum,
		Faults:   inj.Counts(),
		Watchdog: wd,
	}
	if fold != nil {
		out.sim = c
	}
	if spec.Telemetry != nil {
		spec.Telemetry.Emit("run.done",
			telemetry.F("workload", spec.Workload),
			telemetry.F("seed", fmt.Sprint(spec.Seed)),
			telemetry.F("energy_j", fmt.Sprintf("%.4f", sum.EnergyJ)))
	}
	return out, nil
}
