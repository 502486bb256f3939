package workload

import (
	"fmt"

	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/metrics"
	"clocksched/internal/sim"
	"clocksched/internal/trace"
)

// Feedback models the closed-loop control workload of Xia et al.'s
// energy-aware feedback scheduling: a periodic control task samples, runs
// its control-law computation, and actuates before the next sample is due.
// Unlike the open-loop traces, the task observes its own measured response
// time and adapts its sampling period — stretching the period when the
// processor (at whatever speed the policy chose) can't finish a sample
// comfortably within it, and tightening back toward the nominal rate when
// there is slack. That makes it the one workload whose demand is a moving
// target for the clock scheduler: slow the clock and the loop sheds rate
// instead of missing deadlines, trading control quality for energy.
//
// A second, event-driven process injects load disturbances ("spike"
// events from a seeded trace): transient extra work the loop must absorb,
// as in the paper's setpoint-change experiments.
type Feedback struct {
	cfg       FeedbackConfig
	col       metrics.Collector
	loop      feedbackLoop
	disturb   eventDriven
	seq       int // disturbances absorbed
	installed bool
}

// FeedbackConfig shapes the control loop.
type FeedbackConfig struct {
	// Period is the nominal (initial) sampling period.
	Period sim.Duration
	// MinPeriod and MaxPeriod bound the adaptation: the loop never samples
	// faster than MinPeriod or slower than MaxPeriod.
	MinPeriod sim.Duration
	MaxPeriod sim.Duration
	// Burst is the per-sample control-law computation at full-speed scale.
	Burst cpu.Burst
	// Jitter is the uniform ± fraction applied to each sample's cost.
	Jitter float64
	// Length is the session length.
	Length sim.Duration
	// Seed drives cost jitter and the default disturbance trace.
	Seed uint64
	// Deadlines, when non-nil, makes the loop advertise each sample's
	// work and due time to a deadline-based clock scheduler, like the
	// MPEG player does. *policy.ZooScheduler satisfies this.
	Deadlines DeadlineSink
	// Disturbances is the load-disturbance input trace; nil selects
	// DefaultFeedbackTrace(Seed).
	Disturbances *trace.Trace
}

// DefaultFeedbackConfig returns a loop calibrated against the SA-1100
// model: one sample costs ≈11 ms at 206.4 MHz (comfortable in the 30 ms
// nominal period) and ≈31 ms at 59.0 MHz (just over the period), so the
// loop holds its nominal rate at the upper clock steps and self-sheds
// toward a longer period at the lowest ones.
func DefaultFeedbackConfig() FeedbackConfig {
	return FeedbackConfig{
		Period:    30 * sim.Millisecond,
		MinPeriod: 15 * sim.Millisecond,
		MaxPeriod: 120 * sim.Millisecond,
		Burst:     cpu.Burst{Core: 1_200_000, Mem: 30_000, Cache: 8_000},
		Jitter:    0.10,
		Length:    50 * sim.Second,
		Seed:      1,
	}
}

func (c FeedbackConfig) validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("workload: bad feedback period %v", c.Period)
	}
	if c.MinPeriod <= 0 || c.MaxPeriod < c.MinPeriod {
		return fmt.Errorf("workload: bad feedback period bounds [%v, %v]", c.MinPeriod, c.MaxPeriod)
	}
	if c.Period < c.MinPeriod || c.Period > c.MaxPeriod {
		return fmt.Errorf("workload: feedback period %v outside [%v, %v]", c.Period, c.MinPeriod, c.MaxPeriod)
	}
	if c.Burst.Zero() {
		return fmt.Errorf("workload: empty feedback burst")
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("workload: bad feedback jitter %v", c.Jitter)
	}
	if c.Length <= 0 {
		return fmt.Errorf("workload: bad length %v", c.Length)
	}
	return nil
}

// disturbanceBurst is the transient extra work one unit of "spike"
// injects: roughly two nominal samples' worth.
var disturbanceBurst = cpu.Burst{Core: 2_500_000, Mem: 60_000, Cache: 16_000}

// disturbanceDeadline is how promptly a disturbance must be absorbed.
const disturbanceDeadline = 150 * sim.Millisecond

// feedbackTraceMaxEvents bounds DefaultFeedbackTrace's event count: spikes
// from 2 s to before 48 s, at least 3 s apart.
const feedbackTraceMaxEvents = 16

// DefaultFeedbackTrace generates the deterministic disturbance schedule:
// "spike" events (arg = magnitude in tenths of disturbanceBurst) every few
// seconds across a 50 s session.
func DefaultFeedbackTrace(seed uint64) *trace.Trace {
	return DefaultFeedbackTraceInto(new(trace.Recorder), seed)
}

// DefaultFeedbackTraceInto generates DefaultFeedbackTrace(seed) into
// rec, which it resets, and returns rec's trace.
func DefaultFeedbackTraceInto(rec *trace.Recorder, seed uint64) *trace.Trace {
	rng := sim.NewRNG(seed)
	rec.Reset("feedback", feedbackTraceMaxEvents)
	now := 2 * sim.Second
	for now < 48*sim.Second {
		rec.Add(now, "spike", 5+rng.Int63n(11))
		now += rng.Duration(3*sim.Second, 8*sim.Second)
	}
	tr, err := rec.Finish()
	if err != nil {
		panic(err) // deterministic construction cannot produce a bad trace
	}
	return tr
}

// NewFeedback builds the workload.
func NewFeedback(cfg FeedbackConfig) (*Feedback, error) { return new(Feedback).renew(cfg) }

// renew makes f what NewFeedback(cfg) returns, keeping its arrays.
func (f *Feedback) renew(cfg FeedbackConfig) (*Feedback, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Disturbances == nil {
		cfg.Disturbances = DefaultFeedbackTrace(cfg.Seed)
	}
	if err := cfg.Disturbances.Validate(); err != nil {
		return nil, err
	}
	f.clear()
	f.cfg = cfg
	return f, nil
}

// clear drops every reference f holds to its last run.
func (f *Feedback) clear() {
	f.col.Reset()
	f.disturb.renew("", nil, nil)
	*f = Feedback{col: f.col, disturb: f.disturb}
}

// Name implements Workload.
func (f *Feedback) Name() string { return "Feedback" }

// Duration implements Workload.
func (f *Feedback) Duration() sim.Duration { return f.cfg.Length }

// Metrics implements Workload.
func (f *Feedback) Metrics() *metrics.Collector { return &f.col }

// FinalPeriod reports the sampling period the loop converged to; valid
// after the run. Zero before installation.
func (f *Feedback) FinalPeriod() sim.Duration { return f.loop.period }

// Install implements Workload: it spawns the control loop and the
// disturbance injector.
func (f *Feedback) Install(k *kernel.Kernel) error {
	if f.installed {
		return errReinstall
	}
	f.installed = true
	f.loop = feedbackLoop{
		cfg:    f.cfg,
		col:    &f.col,
		rng:    *sim.NewRNG(f.cfg.Seed),
		period: f.cfg.Period,
	}
	if _, err := k.Spawn(&f.loop); err != nil {
		return err
	}
	f.disturb.renew("fb_disturb", &f.col, f)
	proc, err := k.Spawn(&f.disturb)
	if err != nil {
		return err
	}
	return installTrace(k, &f.disturb, proc, f.cfg.Disturbances)
}

// respond absorbs a load disturbance.
func (f *Feedback) respond(now sim.Time, e trace.Event, buf []kernel.Action) response {
	if e.Kind != "spike" {
		return response{} // unknown events are ignored
	}
	f.seq++
	return response{
		actions: append(buf, kernel.Compute(disturbanceBurst.Scale(float64(e.Arg)/10))),
		stream:  "spike",
		seq:     f.seq,
		due:     e.At + disturbanceDeadline,
	}
}

// feedbackLoop is the adaptive control task.
type feedbackLoop struct {
	cfg     FeedbackConfig
	col     *metrics.Collector
	rng     sim.RNG
	period  sim.Duration
	release sim.Time
	due     sim.Time
	iter    int
	job     int
	// computing marks that the current sample's burst was issued and the
	// loop is deciding what to do with the measured response.
	computing bool
}

// Name implements kernel.Program.
func (f *feedbackLoop) Name() string { return "fb_control" }

// Next implements kernel.Program.
func (f *feedbackLoop) Next(now sim.Time) kernel.Action {
	if !f.computing {
		if f.release >= f.cfg.Length {
			return kernel.Exit()
		}
		f.computing = true
		f.due = f.release + f.period
		burst := f.cfg.Burst
		if f.cfg.Jitter > 0 {
			burst = burst.Scale(1 + f.cfg.Jitter*(2*f.rng.Float64()-1))
		}
		if f.cfg.Deadlines != nil {
			f.job = f.cfg.Deadlines.Submit(burst.Cycles(cpu.MaxStep), f.due)
		}
		return kernel.Compute(burst)
	}
	f.computing = false
	if f.cfg.Deadlines != nil {
		f.cfg.Deadlines.Complete(f.job)
	}
	f.col.Record("loop", f.iter, f.due, now)
	f.iter++
	// The feedback law, in pure integer arithmetic so adaptation is exact
	// across platforms: a response consuming ≥90% of the period means the
	// processor is struggling at its current speed — back the rate off by
	// 25%. A response under 40% means ample slack — creep back toward the
	// nominal rate by ~9%. In between, hold.
	resp := now - f.release
	prev := f.period
	switch {
	case resp*10 >= f.period*9:
		f.period = f.period * 5 / 4
	case resp*5 <= f.period*2:
		f.period = f.period * 10 / 11
	}
	if f.period < f.cfg.MinPeriod {
		f.period = f.cfg.MinPeriod
	}
	if f.period > f.cfg.MaxPeriod {
		f.period = f.cfg.MaxPeriod
	}
	next := f.release + prev
	if next <= now {
		// Overran the whole period: release the next sample immediately.
		f.release = now
		return kernel.Compute(cpu.Burst{}) // no-op, loop continues
	}
	f.release = next
	return kernel.SleepUntil(next)
}
