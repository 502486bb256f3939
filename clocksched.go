// Package clocksched reproduces "Policies for Dynamic Clock Scheduling"
// (Grunwald, Morrey, Levis, Neufeld, Farkas — OSDI 2000) as a library: a
// deterministic simulation of the Itsy pocket computer (StrongARM SA-1100,
// eleven clock steps, two core voltages), a Linux-2.0.30-style kernel with
// per-quantum utilization accounting, the paper's interval clock-scheduling
// policies (PAST, AVG_N with one/double/peg speed setting and hysteresis
// bounds), its four benchmark workloads, and the DAQ-based energy
// measurement methodology.
//
// The top-level API runs one measurement: a workload under a policy,
// returning energy, deadline behaviour, and stability metrics. The
// simulation is virtual-time and bit-for-bit repeatable from its seed.
//
//	best, err := clocksched.NewPolicy("past-peg-peg", nil)
//	...
//	res, err := clocksched.Run(clocksched.Config{
//	    Workload: clocksched.MPEG,
//	    Policy:   best,
//	})
//
// Lower layers (the experiment harness regenerating every table and figure
// of the paper, the signal-processing analysis of AVG_N, the battery
// models) live in internal packages and are exercised by cmd/experiments
// and the examples.
package clocksched

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"strings"
	"time"

	"clocksched/internal/cpu"
	"clocksched/internal/expt"
	"clocksched/internal/fault"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

// Workload names one of the paper's benchmark applications.
type Workload string

// The available workloads. RectWave is the idealized 9-busy/1-idle quantum
// pattern of the paper's Section 5.3 analysis; Feedback is the closed-loop
// control task of Xia et al.'s energy-aware feedback scheduling, whose
// sampling period adapts to its own measured response time.
const (
	MPEG          Workload = "mpeg"
	Web           Workload = "web"
	Chess         Workload = "chess"
	TalkingEditor Workload = "editor"
	RectWave      Workload = "rect"
	Feedback      Workload = "feedback"
)

// Workloads lists every available workload.
func Workloads() []Workload {
	return []Workload{MPEG, Web, Chess, TalkingEditor, RectWave, Feedback}
}

// SpeedSetter names a scaling amount policy: how far to move the clock once
// the decision to scale has been made.
type SpeedSetter string

// The paper's three speed setters.
const (
	One    SpeedSetter = "one"    // move one clock step
	Double SpeedSetter = "double" // double or halve the step index
	Peg    SpeedSetter = "peg"    // jump to the extreme step
)

// Policy specifies a clock scheduling policy. Build one by name through the
// policy registry (NewPolicy); a literal of the resolved fields is the flat
// form that specs written before the registry carry. The JSON field tags
// define that flat wire form inside a SweepSpec, so a policy built by one
// process (a client submitting a job) reconstructs identically in another
// (the sweep daemon).
type Policy struct {
	// Constant, when true, fixes the clock at MHz/LowVoltage and
	// disables interval scheduling (the paper's baseline rows).
	Constant bool `json:"constant,omitempty"`
	// MHz is the constant clock frequency; the nearest of the SA-1100's
	// eleven steps is used. Ignored for interval policies.
	MHz float64 `json:"mhz,omitempty"`
	// LowVoltage runs the core at 1.23 V instead of 1.5 V (constant
	// policies only; it must be safe at the chosen step, i.e. below
	// 162.2 MHz).
	LowVoltage bool `json:"low_voltage,omitempty"`

	// AvgN is the predictor decay: 0 is PAST, N > 0 is AVG_N.
	AvgN int `json:"avg_n,omitempty"`
	// Up and Down are the speed setters for the two directions.
	Up   SpeedSetter `json:"up,omitempty"`
	Down SpeedSetter `json:"down,omitempty"`
	// LoPercent and HiPercent are the hysteresis bounds: scale down
	// below Lo% weighted utilization, up above Hi%.
	LoPercent int `json:"lo_percent,omitempty"`
	HiPercent int `json:"hi_percent,omitempty"`
	// VoltageScale drops the core to 1.23 V whenever the clock is below
	// 162.2 MHz.
	VoltageScale bool `json:"voltage_scale,omitempty"`

	// Deadline selects the application-informed deadline scheduler (the
	// paper's future-work direction) instead of an interval heuristic;
	// only MPEG currently advertises deadlines. AvgN/Up/Down/bounds are
	// ignored.
	Deadline bool `json:"deadline,omitempty"`

	// Proportional selects the ondemand-style proportional governor:
	// the AvgN predictor's estimate sets the speed directly against
	// TargetPercent headroom. Up/Down/bounds are ignored.
	Proportional  bool `json:"proportional,omitempty"`
	TargetPercent int  `json:"target_percent,omitempty"`

	// Zoo selects one of the deadline-feasible online algorithms ported
	// from the speed-scaling literature: "oa" (Optimal Available), "avr"
	// (Average Rate), or "bkp" (Bansal–Kimbrel–Pruhs). Like Deadline they
	// consume application deadlines when the workload advertises them;
	// elsewhere they synthesize per-quantum jobs due SlackQuanta quanta
	// out (0 means the default of 3, ≈30 ms). Other interval fields are
	// ignored.
	Zoo         string `json:"zoo,omitempty"`
	SlackQuanta int    `json:"slack_quanta,omitempty"`

	// Ref, when non-nil, records that this policy was materialized from
	// the policy registry (NewPolicy / a {"name", "params"} wire form):
	// the resolved settings above drive the simulation, while Ref drives
	// serialization and cache identity. Populated by the registry; see
	// policyreg.go. Excluded from the flat JSON field form (the registry
	// form replaces the whole object).
	Ref *PolicyRef `json:"-"`
}

// Name describes the policy in the paper's style.
func (p Policy) Name() string {
	if p.Constant {
		v := "1.5V"
		if p.LowVoltage {
			v = "1.23V"
		}
		return fmt.Sprintf("Constant @ %.1fMHz, %s", p.MHz, v)
	}
	pred := "PAST"
	if p.AvgN > 0 {
		pred = fmt.Sprintf("AVG_%d", p.AvgN)
	}
	vs := ""
	if p.VoltageScale {
		vs = ", voltage scaling"
	}
	if p.Deadline {
		return "DEADLINE" + vs
	}
	if p.Zoo != "" {
		return fmt.Sprintf("%s(slack=%d)%s", strings.ToUpper(p.Zoo), p.slackQuanta(), vs)
	}
	if p.Proportional {
		return fmt.Sprintf("PROPORTIONAL(%s, %d%%)%s", pred, p.TargetPercent, vs)
	}
	return fmt.Sprintf("%s, %s-%s, %d%%-%d%%%s", pred, p.Up, p.Down, p.LoPercent, p.HiPercent, vs)
}

// Validate checks the policy eagerly and reports every problem at once,
// joined with errors.Join, so a caller assembling a sweep grid sees all of
// a cell's mistakes in one round trip rather than one per run.
func (p Policy) Validate() error {
	var errs []error
	kinds := 0
	for _, set := range []bool{p.Constant, p.Deadline, p.Proportional, p.Zoo != ""} {
		if set {
			kinds++
		}
	}
	if kinds > 1 {
		errs = append(errs, fmt.Errorf("clocksched: Constant, Deadline, Proportional, and Zoo are mutually exclusive"))
	}
	switch {
	case p.Zoo != "":
		switch p.Zoo {
		case "oa", "avr", "bkp":
		default:
			errs = append(errs, fmt.Errorf("clocksched: unknown zoo algorithm %q (want oa, avr, or bkp)", p.Zoo))
		}
		if p.SlackQuanta < 0 {
			errs = append(errs, fmt.Errorf("clocksched: negative zoo slack %d quanta", p.SlackQuanta))
		}
	case p.Constant:
		if p.MHz <= 0 {
			errs = append(errs, fmt.Errorf("clocksched: constant policy needs a positive MHz, got %g", p.MHz))
		}
		if p.LowVoltage && p.MHz > 0 {
			if step := cpu.NearestStep(int64(p.MHz * 1000)); !cpu.VoltageOK(step, cpu.VLow) {
				errs = append(errs, fmt.Errorf("clocksched: 1.23V is unsafe at %s", step))
			}
		}
	case p.Deadline:
		// Nothing further: the deadline scheduler has no tunables here.
	case p.Proportional:
		if p.AvgN < 0 {
			errs = append(errs, fmt.Errorf("clocksched: negative AVG_N %d", p.AvgN))
		}
		if p.TargetPercent <= 0 || p.TargetPercent > 100 {
			errs = append(errs, fmt.Errorf("clocksched: proportional target %d%% outside (0, 100]", p.TargetPercent))
		}
	default:
		if p.AvgN < 0 {
			errs = append(errs, fmt.Errorf("clocksched: negative AVG_N %d", p.AvgN))
		}
		if _, ok := policy.SetterByName(string(p.Up)); !ok {
			errs = append(errs, fmt.Errorf("clocksched: unknown up setter %q", p.Up))
		}
		if _, ok := policy.SetterByName(string(p.Down)); !ok {
			errs = append(errs, fmt.Errorf("clocksched: unknown down setter %q", p.Down))
		}
		if p.LoPercent < 0 || p.HiPercent > 100 || p.LoPercent >= p.HiPercent {
			errs = append(errs, fmt.Errorf("clocksched: bounds %d%%-%d%% want 0 <= lo < hi <= 100",
				p.LoPercent, p.HiPercent))
		}
	}
	return errors.Join(errs...)
}

// slackQuanta resolves the zoo slack default: 0 means 3 quanta (≈30 ms),
// the perceptual latency budget the paper's interval policies assume.
func (p Policy) slackQuanta() int {
	if p.SlackQuanta == 0 {
		return 3
	}
	return p.SlackQuanta
}

// build converts the spec into a kernel policy and boot settings.
func (p Policy) build() (spec expt.RunSpec, err error) {
	if p.Constant {
		step := cpu.NearestStep(int64(p.MHz * 1000))
		v := cpu.VHigh
		if p.LowVoltage {
			v = cpu.VLow
			if !cpu.VoltageOK(step, v) {
				return spec, fmt.Errorf("clocksched: 1.23V is unsafe at %s", step)
			}
		}
		spec.InitialStep = step
		spec.InitialV = v
		return spec, nil
	}
	if p.Deadline {
		d := policy.NewDeadlineScheduler()
		d.VoltageScale = p.VoltageScale
		spec.Policy = d
		spec.InitialStep = cpu.MaxStep
		spec.InitialV = cpu.VHigh
		return spec, nil
	}
	if p.Zoo != "" {
		z, err := policy.NewZooScheduler(policy.ZooAlgo(strings.ToUpper(p.Zoo)), p.slackQuanta())
		if err != nil {
			return spec, fmt.Errorf("clocksched: %w", err)
		}
		z.VoltageScale = p.VoltageScale
		spec.Policy = z
		spec.InitialStep = cpu.MaxStep
		spec.InitialV = cpu.VHigh
		return spec, nil
	}
	pred, err := policy.NewAvgN(p.AvgN)
	if err != nil {
		return spec, fmt.Errorf("clocksched: %w", err)
	}
	if p.Proportional {
		prop, err := policy.NewProportional(pred,
			p.TargetPercent*100, p.VoltageScale)
		if err != nil {
			return spec, err
		}
		spec.Policy = prop
		spec.InitialStep = cpu.MaxStep
		spec.InitialV = cpu.VHigh
		return spec, nil
	}
	up, ok := policy.SetterByName(string(p.Up))
	if !ok {
		return spec, fmt.Errorf("clocksched: unknown up setter %q", p.Up)
	}
	down, ok := policy.SetterByName(string(p.Down))
	if !ok {
		return spec, fmt.Errorf("clocksched: unknown down setter %q", p.Down)
	}
	gov, err := policy.NewGovernor(pred, up, down,
		policy.Bounds{Lo: p.LoPercent * 100, Hi: p.HiPercent * 100}, p.VoltageScale)
	if err != nil {
		return spec, err
	}
	spec.Policy = gov
	spec.InitialStep = cpu.MaxStep
	spec.InitialV = cpu.VHigh
	return spec, nil
}

// FaultPlan describes deterministic fault injection for one run. All
// probabilities are per opportunity in [0, 1]; zero fields inject nothing.
// The injection schedule is drawn from a dedicated RNG stream derived from
// Config.Seed, so it is repeatable and independent of workload jitter: a
// nil or zero plan leaves the run bit-identical to one without the fault
// layer.
type FaultPlan struct {
	// ClockChangeFailProb makes a requested clock-step transition fail
	// silently: the PLL never relocks, the step stays put, and the policy
	// discovers the refusal only by observing the unchanged step.
	ClockChangeFailProb float64 `json:"clock_change_fail_prob,omitempty"`
	// SettleStallProb extends a successful clock change's 200 µs relock
	// stall by a uniform extra delay in (0, SettleStallMax]. Durations
	// travel as integer nanoseconds in JSON.
	SettleStallProb float64       `json:"settle_stall_prob,omitempty"`
	SettleStallMax  time.Duration `json:"settle_stall_max,omitempty"` // zero: 2 ms
	// SampleDropProb loses a DAQ conversion; the instrument repeats its
	// previous reading.
	SampleDropProb float64 `json:"sample_drop_prob,omitempty"`
	// SampleGlitchProb perturbs a DAQ reading by a uniform additive error
	// in [−SampleGlitchWatts, +SampleGlitchWatts], clipped to the ADC
	// range.
	SampleGlitchProb  float64 `json:"sample_glitch_prob,omitempty"`
	SampleGlitchWatts float64 `json:"sample_glitch_watts,omitempty"` // zero: 0.5 W
	// TimerJitterProb delays a quantum timer interrupt by a uniform
	// amount in (0, TimerJitterMax].
	TimerJitterProb float64       `json:"timer_jitter_prob,omitempty"`
	TimerJitterMax  time.Duration `json:"timer_jitter_max,omitempty"` // zero: 2 ms
	// TraceDropProb loses a scheduler trace event; TraceDelayProb stamps
	// one late by up to TraceDelayMax.
	TraceDropProb  float64       `json:"trace_drop_prob,omitempty"`
	TraceDelayProb float64       `json:"trace_delay_prob,omitempty"`
	TraceDelayMax  time.Duration `json:"trace_delay_max,omitempty"` // zero: 5 ms
	// CellAbortProb kills the whole run at a quantum boundary with that
	// per-quantum probability — the crashed-worker failure mode. The
	// resulting error is transient, so a Sweep configured with Retries
	// re-runs the cell; the abort schedule is re-drawn per attempt while
	// every other fault decision (and any successful run) stays
	// bit-identical.
	CellAbortProb float64 `json:"cell_abort_prob,omitempty"`
}

func (p *FaultPlan) internal() *fault.Plan {
	if p == nil {
		return nil
	}
	return &fault.Plan{
		ClockChangeFailProb: p.ClockChangeFailProb,
		SettleStallProb:     p.SettleStallProb,
		SettleStallMax:      sim.Duration(p.SettleStallMax / time.Microsecond),
		SampleDropProb:      p.SampleDropProb,
		SampleGlitchProb:    p.SampleGlitchProb,
		SampleGlitchWatts:   p.SampleGlitchWatts,
		TimerJitterProb:     p.TimerJitterProb,
		TimerJitterMax:      sim.Duration(p.TimerJitterMax / time.Microsecond),
		TraceDropProb:       p.TraceDropProb,
		TraceDelayProb:      p.TraceDelayProb,
		TraceDelayMax:       sim.Duration(p.TraceDelayMax / time.Microsecond),
		CellAbortProb:       p.CellAbortProb,
	}
}

// WatchdogConfig tunes the supervisory governor that wraps the selected
// policy. Zero fields take defaults (16-quantum window, 6 reversals, 50
// saturated quanta, 8 missed deadlines, 1 s safe hold escalating to 8 s).
type WatchdogConfig struct {
	// Window and MaxReversals configure the oscillation detector: that
	// many direction reversals within Window quanta trips safe mode.
	Window       int `json:"window,omitempty"`
	MaxReversals int `json:"max_reversals,omitempty"`
	// PegQuanta and PegUtilPercent configure the pegging detector:
	// PegQuanta consecutive quanta at the minimum clock step with
	// utilization at or above PegUtilPercent trip safe mode.
	PegQuanta      int `json:"peg_quanta,omitempty"`
	PegUtilPercent int `json:"peg_util_percent,omitempty"`
	// MissStreak consecutive deadlines late beyond DeadlineSlack trip
	// safe mode.
	MissStreak int `json:"miss_streak,omitempty"`
	// SafeQuanta is the first trip's safe-mode hold, in 10 ms quanta;
	// each further trip doubles it up to MaxSafeQuanta.
	SafeQuanta    int `json:"safe_quanta,omitempty"`
	MaxSafeQuanta int `json:"max_safe_quanta,omitempty"`
}

func (c *WatchdogConfig) internal() *policy.WatchdogConfig {
	if c == nil {
		return nil
	}
	return &policy.WatchdogConfig{
		Window:        c.Window,
		MaxReversals:  c.MaxReversals,
		PegQuanta:     c.PegQuanta,
		PegUtil:       c.PegUtilPercent * 100,
		MissStreak:    c.MissStreak,
		SafeQuanta:    c.SafeQuanta,
		MaxSafeQuanta: c.MaxSafeQuanta,
	}
}

// Config describes one measurement run.
type Config struct {
	// Workload selects the benchmark; the zero value is MPEG.
	Workload Workload
	// Policy is the clock scheduling policy; the zero value is constant
	// full speed at 1.5 V.
	Policy Policy
	// Seed drives workload jitter; runs with equal seeds are identical.
	Seed uint64
	// Duration bounds the run; zero uses the workload's natural session
	// length (60 s MPEG, 190 s Web, 218 s Chess, 70 s TalkingEditor).
	Duration time.Duration
	// DeadlineSlack is the perceptual slack when counting missed
	// deadlines; zero selects 33 ms (half an MPEG frame).
	DeadlineSlack time.Duration
	// CaptureTrace retains the per-quantum utilization/frequency timeline
	// for Result.TraceSeq. It is opt-in because the trace dominates the
	// Result's footprint (one point per 10 ms of simulated time) and most
	// callers — sweeps especially — only want the scalar metrics.
	CaptureTrace bool
	// Faults optionally injects deterministic hardware/driver failures.
	Faults *FaultPlan
	// Watchdog optionally wraps the policy in a supervisory governor that
	// degrades to full speed at 1.5 V when the policy misbehaves. It
	// requires a non-constant policy.
	Watchdog *WatchdogConfig
	// Telemetry, when non-nil, streams live instrumentation from every
	// layer of the run into the shared registry. Purely observational: the
	// Result is bit-identical with or without it, and the field is excluded
	// from sweep cache keys.
	Telemetry *Telemetry
}

// withDefaults resolves the documented zero-value defaults.
func (cfg Config) withDefaults() Config {
	if cfg.Workload == "" {
		cfg.Workload = MPEG
	}
	if cfg.Policy == (Policy{}) {
		cfg.Policy = Policy{Constant: true, MHz: 206.4}
	}
	if cfg.DeadlineSlack == 0 {
		cfg.DeadlineSlack = 33 * time.Millisecond
	}
	return cfg
}

// Validate checks the whole configuration eagerly — workload, duration,
// policy, fault plan, watchdog — and reports every problem at once via
// errors.Join. Run and Sweep call it before simulating, so a bad cell
// fails in microseconds instead of after its neighbours' runs.
func (cfg Config) Validate() error {
	cfg = cfg.withDefaults()
	var errs []error
	known := false
	for _, w := range Workloads() {
		if cfg.Workload == w {
			known = true
			break
		}
	}
	if !known {
		errs = append(errs, fmt.Errorf("clocksched: unknown workload %q", cfg.Workload))
	}
	if cfg.Duration < 0 {
		errs = append(errs, fmt.Errorf("clocksched: negative duration %v", cfg.Duration))
	}
	if cfg.DeadlineSlack < 0 {
		errs = append(errs, fmt.Errorf("clocksched: negative deadline slack %v", cfg.DeadlineSlack))
	}
	if err := cfg.Policy.Validate(); err != nil {
		errs = append(errs, err)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.internal().Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if cfg.Watchdog != nil && cfg.Policy.Constant {
		errs = append(errs, fmt.Errorf("clocksched: watchdog requires a non-constant policy"))
	}
	return errors.Join(errs...)
}

// UtilPoint is one scheduling quantum of the run's utilization trace.
type UtilPoint struct {
	At          time.Duration
	Utilization float64 // busy fraction of the quantum, 0..1
	MHz         float64 // clock during the quantum
}

// Result reports everything one measurement run produced.
type Result struct {
	// EnergyJoules is the DAQ-integrated whole-system energy.
	EnergyJoules float64
	// AvgPowerWatts is the mean sampled power.
	AvgPowerWatts float64
	// PeakPowerWatts is the largest sampled power.
	PeakPowerWatts float64
	// MeanUtilization is the average per-quantum busy fraction.
	MeanUtilization float64

	// Deadlines counts application timing obligations; Misses counts
	// those late beyond the configured slack, and MaxLateness is the
	// worst case.
	Deadlines   int
	Misses      int
	MaxLateness time.Duration

	// ClockChanges and VoltageChanges count the policy's scaling
	// actions; StallTime is the total execution time lost to PLL
	// relocks.
	ClockChanges   int
	VoltageChanges int
	StallTime      time.Duration

	// ContextSwitches counts scheduling decisions that changed the
	// running process; IdleShare is the fraction of scheduling decisions
	// that picked the idle process.
	ContextSwitches int
	IdleShare       float64

	// TimeAtMHz is the residency: how long the clock sat at each step.
	TimeAtMHz map[float64]time.Duration

	// trace is the per-quantum utilization and frequency timeline,
	// retained only when Config.CaptureTrace was set; see TraceSeq.
	trace []UtilPoint

	// Faults reports what the injection plan actually did; nil when no
	// plan was configured.
	Faults *FaultReport
	// Watchdog reports the supervisory governor's activity; nil when none
	// was configured.
	Watchdog *WatchdogReport

	// Telemetry summarizes the run's activity counts. Unlike the live
	// Config.Telemetry registry it is always populated, and only from
	// virtual-time accounting, so it is deterministic per seed.
	Telemetry RunTelemetry
}

// FaultReport tallies the faults a plan injected into one run.
type FaultReport struct {
	ClockChangeFails int           // clock transitions the hardware refused
	SettleStalls     int           // extended PLL relocks
	ExtraStallTime   time.Duration // execution time lost to them
	SamplesDropped   int           // DAQ conversions lost
	SamplesGlitched  int           // DAQ readings perturbed
	TimerJitters     int           // delayed quantum interrupts
	TimerJitterTime  time.Duration // total interrupt delay
	TraceDrops       int           // scheduler trace events lost
	TraceDelays      int           // scheduler trace events stamped late
	Total            int           // every fault injected
}

// WatchdogReport summarizes the supervisory governor's interventions.
type WatchdogReport struct {
	OscillationTrips int  // safe-mode entries for step flip-flop
	PeggingTrips     int  // entries for pegging at the minimum step
	MissStreakTrips  int  // entries for missed-deadline streaks
	Trips            int  // total safe-mode entries
	InSafeMode       bool // the run ended degraded
}

// TraceSeq iterates the per-quantum utilization/frequency timeline. The
// trace is only present when the run was configured with CaptureTrace;
// otherwise the sequence is empty. The points stream in time order without
// copying the backing slice.
func (r *Result) TraceSeq() iter.Seq[UtilPoint] {
	return func(yield func(UtilPoint) bool) {
		for _, p := range r.trace {
			if !yield(p) {
				return
			}
		}
	}
}

// TraceLen reports how many trace points TraceSeq will yield.
func (r *Result) TraceLen() int { return len(r.trace) }

// Run executes one measurement run. It is exactly
// RunContext(context.Background(), cfg) — one entry point, one validation
// path — and exists for callers with no cancellation needs. New code that
// might ever want timeouts or cancellation should call RunContext directly.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes one measurement run under a context, and is the
// primary entry point (Run is a documented alias). All validation happens
// here, via Config.Validate, so the two can never drift. Cancellation is
// observed at quantum boundaries — every 10 ms of simulated time — so the
// run aborts promptly with an error satisfying errors.Is(err, ctx.Err()).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	spec, err := cfg.Policy.build()
	if err != nil {
		return nil, err
	}
	spec.Workload = string(cfg.Workload)
	spec.Seed = cfg.Seed
	spec.Duration = sim.Duration(cfg.Duration / time.Microsecond)
	slack := cfg.DeadlineSlack
	spec.Faults = cfg.Faults.internal()
	spec.Watchdog = cfg.Watchdog.internal()
	spec.WatchdogSlack = sim.Duration(slack / time.Microsecond)
	spec.Telemetry = cfg.Telemetry.registry()
	spec.Stream = !cfg.CaptureTrace

	out, err := expt.RunContext(ctx, spec)
	if err != nil {
		return nil, err
	}

	col := out.Workload.Metrics()
	res := &Result{
		EnergyJoules:    out.EnergyJ,
		AvgPowerWatts:   out.AvgPowerW,
		PeakPowerWatts:  out.DAQ.PeakW,
		MeanUtilization: out.MeanUtil,
		Deadlines:       col.Count(),
		Misses:          col.MissCount(sim.Duration(slack / time.Microsecond)),
		MaxLateness:     col.MaxLateness().Std(),
		ClockChanges:    out.Kernel.SpeedChanges(),
		VoltageChanges:  out.Kernel.VoltageChanges(),
		StallTime:       out.Kernel.StallTime().Std(),
		TimeAtMHz:       map[float64]time.Duration{},
	}
	res.Telemetry = RunTelemetry{
		EventsFired: out.Kernel.Engine().Fired(),
		Quanta:      out.Kernel.Quanta(),
		DAQSamples:  out.DAQ.Samples,
	}
	// The spec carries the unwrapped policy (the watchdog wraps a local
	// copy), but see through a wrapper anyway in case that changes.
	runPol := out.Spec.Policy
	if wd, ok := runPol.(*policy.Watchdog); ok {
		runPol = wd.Inner()
	}
	if g, ok := runPol.(*policy.Governor); ok {
		res.Telemetry.ScaleUps, res.Telemetry.ScaleDowns = g.ScaleCounts()
	}
	logStats := out.Kernel.AnalyzeLog()
	res.ContextSwitches = logStats.Switches
	if logStats.Decisions > 0 {
		res.IdleShare = float64(logStats.IdleDecisions) / float64(logStats.Decisions)
	}
	for s, d := range out.Kernel.Residency() {
		if d > 0 {
			res.TimeAtMHz[cpu.Step(s).MHz()] = d.Std()
		}
	}
	if cfg.CaptureTrace {
		for _, u := range out.Kernel.UtilLog() {
			res.trace = append(res.trace, UtilPoint{
				At:          u.At.Std(),
				Utilization: float64(u.PP10K) / 10000,
				MHz:         u.StepAt.MHz(),
			})
		}
	}
	if cfg.Faults != nil {
		c := out.Faults
		res.Faults = &FaultReport{
			ClockChangeFails: c.ClockChangeFails,
			SettleStalls:     c.SettleStalls,
			ExtraStallTime:   c.ExtraStallTime.Std(),
			SamplesDropped:   c.SamplesDropped,
			SamplesGlitched:  c.SamplesGlitched,
			TimerJitters:     c.TimerJitters,
			TimerJitterTime:  c.TimerJitterTime.Std(),
			TraceDrops:       c.TraceDrops,
			TraceDelays:      c.TraceDelays,
			Total:            c.Total(),
		}
	}
	if out.Watchdog != nil {
		tr := out.Watchdog.Trips()
		res.Watchdog = &WatchdogReport{
			OscillationTrips: tr.Oscillation,
			PeggingTrips:     tr.Pegging,
			MissStreakTrips:  tr.MissStreak,
			Trips:            tr.Total(),
			InSafeMode:       out.Watchdog.InSafeMode(),
		}
	}
	return res, nil
}

// ClockStepsMHz returns the SA-1100's eleven clock steps in MHz, slowest
// first.
func ClockStepsMHz() []float64 {
	out := make([]float64, 0, cpu.NumSteps)
	for s := cpu.MinStep; s <= cpu.MaxStep; s++ {
		out = append(out, s.MHz())
	}
	return out
}
