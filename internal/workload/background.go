package workload

import (
	"fmt"

	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/metrics"
	"clocksched/internal/sim"
)

// JavaPollPeriod is the Kaffe graphics library's input-polling interval:
// "the Java implementation we used has a 30 ms I/O polling loop".
const JavaPollPeriod = 30 * sim.Millisecond

// javaPollBurst is the ~1 ms of work each poll takes at full speed ("a
// constant polling action every 30 ms that takes about a millisecond to
// complete").
var javaPollBurst = cpu.Burst{Core: 180_000, Mem: 1_200, Cache: 200}

// JavaPoll is the background polling process that every Java workload
// carries; it is the periodic disturbance the paper blames for part of the
// clock-setting instability. It exits after length.
type JavaPoll struct {
	length  sim.Duration
	working bool
	tick    int
}

// Name implements kernel.Program.
func (j *JavaPoll) Name() string { return "kaffe-poll" }

// Next implements kernel.Program.
func (j *JavaPoll) Next(now sim.Time) kernel.Action {
	if !j.working {
		j.working = true
		return kernel.Compute(javaPollBurst)
	}
	j.working = false
	j.tick++
	next := sim.Time(j.tick) * JavaPollPeriod
	if next > j.length {
		return kernel.Exit()
	}
	return kernel.SleepUntil(next)
}

// RectWave is the idealized workload of Section 5.3: busy for a fixed
// number of quanta, idle for a fixed number, repeating — "an idealized
// version of our MPEG player running roughly at an optimal speed".
type RectWave struct {
	BusyQuanta int
	IdleQuanta int
	Length     sim.Duration

	col       metrics.Collector
	prog      rectProgram
	installed bool
}

// NewRectWave builds the wave workload; the paper's example is 9 busy, 1
// idle.
func NewRectWave(busy, idle int, length sim.Duration) (*RectWave, error) {
	return new(RectWave).renew(busy, idle, length)
}

// renew makes r what NewRectWave(busy, idle, length) returns, keeping its
// collector's streams.
func (r *RectWave) renew(busy, idle int, length sim.Duration) (*RectWave, error) {
	if busy < 1 || idle < 1 {
		return nil, fmt.Errorf("workload: rect wave needs positive phases, got %d/%d", busy, idle)
	}
	if length <= 0 {
		return nil, fmt.Errorf("workload: bad length %v", length)
	}
	r.clear()
	r.BusyQuanta, r.IdleQuanta, r.Length = busy, idle, length
	return r, nil
}

// clear drops every reference r holds to its last run.
func (r *RectWave) clear() {
	r.col.Reset()
	*r = RectWave{col: r.col}
}

// Name implements Workload.
func (r *RectWave) Name() string { return fmt.Sprintf("RectWave%d-%d", r.BusyQuanta, r.IdleQuanta) }

// Duration implements Workload.
func (r *RectWave) Duration() sim.Duration { return r.Length }

// Metrics implements Workload. The wave has no deadlines; the collector
// stays empty.
func (r *RectWave) Metrics() *metrics.Collector { return &r.col }

// Install implements Workload.
func (r *RectWave) Install(k *kernel.Kernel) error {
	if r.installed {
		return errReinstall
	}
	r.installed = true
	r.prog = rectProgram{wave: r}
	_, err := k.Spawn(&r.prog)
	return err
}

type rectProgram struct {
	wave    *RectWave
	working bool
	cycle   int
}

// Name implements kernel.Program.
func (p *rectProgram) Name() string { return p.wave.Name() }

// Next implements kernel.Program.
func (p *rectProgram) Next(now sim.Time) kernel.Action {
	if now >= p.wave.Length {
		return kernel.Exit()
	}
	p.working = !p.working
	if p.working {
		// Busy exactly through the busy quanta: time-based so the wave
		// shape is frequency-independent, as in the paper's analysis.
		return kernel.ComputeFor(sim.Duration(p.wave.BusyQuanta) * sim.Quantum)
	}
	return kernel.SleepFor(sim.Duration(p.wave.IdleQuanta) * sim.Quantum)
}
