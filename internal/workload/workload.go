// Package workload provides synthetic versions of the paper's benchmark
// applications — MPEG, Web, Chess, and TalkingEditor — plus the Java
// runtime's 30 ms I/O polling loop and the idealized rectangular wave of
// Section 5.3. Each workload installs one or more processes into a
// simulated kernel, drives interactive ones from a deterministic replayable
// input trace, and records application deadlines into a metrics.Collector.
//
// The generators are calibrated to reproduce the demand *shapes* the paper
// reports: MPEG renders 15 frames/s with each frame taking just under 7
// scheduling quanta at 206.4 MHz and runs without missing frames at
// 132.7 MHz but not below; Chess alternates user think-time idleness with
// 100%-utilization planning; TalkingEditor is bursty during UI work and
// then computes long speech-synthesis runs; Web scrolls and renders against
// think time. All randomness flows from an explicit seed.
package workload

import (
	"errors"

	"clocksched/internal/kernel"
	"clocksched/internal/metrics"
	"clocksched/internal/sim"
	"clocksched/internal/trace"
)

// Workload is one installable benchmark application.
type Workload interface {
	// Name is the paper's name for the benchmark.
	Name() string
	// Duration is the natural session length (the paper's trace lengths:
	// 60 s MPEG, 190 s Web, 218 s Chess, 70 s TalkingEditor).
	Duration() sim.Duration
	// Install spawns the workload's processes into the kernel and
	// schedules its input-trace events on the kernel's engine. It may be
	// called once, before Kernel.Run.
	Install(k *kernel.Kernel) error
	// Metrics returns the deadline collector; valid after the run.
	Metrics() *metrics.Collector
}

// response is what an eventDriven handler produces for one input event: a
// sequence of actions and, optionally, a deadline to record once the
// actions have all completed (the user-visible response to the event).
type response struct {
	actions []kernel.Action
	// stream/seq/due describe the deadline; an empty stream records
	// nothing.
	stream string
	seq    int
	due    sim.Time
}

// eventDriven is a process that sleeps until input events arrive (delivered
// by the trace installer through Wake) and runs a queue of actions in
// response to each, like the paper's traced interactive applications. When
// an event's actions drain, the completion time is recorded against the
// event's deadline.
type eventDriven struct {
	name    string
	col     *metrics.Collector
	handle  func(now sim.Time, e trace.Event) response
	pending []trace.Event
	actions []kernel.Action
	cur     response
	inEvent bool
	done    bool
}

// Next implements kernel.Program.
func (p *eventDriven) Next(now sim.Time) kernel.Action {
	for {
		if len(p.actions) > 0 {
			a := p.actions[0]
			p.actions = p.actions[1:]
			return a
		}
		if p.inEvent {
			p.inEvent = false
			if p.cur.stream != "" && p.col != nil {
				p.col.Record(p.cur.stream, p.cur.seq, p.cur.due, now)
			}
		}
		if len(p.pending) == 0 {
			if p.done {
				return kernel.Exit()
			}
			return kernel.WaitEvent()
		}
		e := p.pending[0]
		p.pending = p.pending[1:]
		p.cur = p.handle(now, e)
		p.actions = p.cur.actions
		p.inEvent = true
	}
}

// Name implements kernel.Program.
func (p *eventDriven) Name() string { return p.name }

// deliver enqueues an event and wakes the process.
func (p *eventDriven) deliver(k *kernel.Kernel, proc *kernel.Process, e trace.Event) {
	p.pending = append(p.pending, e)
	k.Wake(proc)
}

// installTrace schedules every event of tr to be delivered to p at its
// recorded time, reproducing the paper's millisecond-accurate replay.
func installTrace(k *kernel.Kernel, p *eventDriven, proc *kernel.Process, tr *trace.Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	for _, e := range tr.Events {
		e := e
		if _, err := k.Engine().At(e.At, func(sim.Time) {
			p.deliver(k, proc, e)
		}); err != nil {
			return err
		}
	}
	return nil
}

// errReinstall is returned when Install is called twice.
var errReinstall = errors.New("workload: already installed")
