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

// Instances keeps one instance of each workload kind for a caller that
// runs workloads one after another, like the simulator shell a sweep's
// cells run in. Each method re-initialises its kind's instance exactly as
// the matching New function builds one, every RNG seeded as New seeds it,
// but keeps what the instance's last run grew: its processes, its trace
// replay cursor and event queue, and its deadline collector's streams. A
// workload it returns is valid until the next call for its kind or Clear.
// The zero value is ready to use.
type Instances struct {
	mpeg     MPEG
	web      Web
	chess    Chess
	editor   TalkingEditor
	feedback Feedback
	rect     RectWave
}

// MPEG returns the kept player as NewMPEG(cfg) builds it.
func (in *Instances) MPEG(cfg MPEGConfig) (*MPEG, error) { return in.mpeg.renew(cfg) }

// Web returns the kept browser as NewWeb(tr) builds it.
func (in *Instances) Web(tr *trace.Trace) (*Web, error) { return in.web.renew(tr) }

// Chess returns the kept game as NewChess(tr) builds it.
func (in *Instances) Chess(tr *trace.Trace) (*Chess, error) { return in.chess.renew(tr) }

// TalkingEditor returns the kept editor as NewTalkingEditor(tr) builds it.
func (in *Instances) TalkingEditor(tr *trace.Trace) (*TalkingEditor, error) {
	return in.editor.renew(tr)
}

// Feedback returns the kept control loop as NewFeedback(cfg) builds it.
func (in *Instances) Feedback(cfg FeedbackConfig) (*Feedback, error) { return in.feedback.renew(cfg) }

// RectWave returns the kept wave as NewRectWave(busy, idle, length) builds
// it.
func (in *Instances) RectWave(busy, idle int, length sim.Duration) (*RectWave, error) {
	return in.rect.renew(busy, idle, length)
}

// Clear drops every reference the instances hold to their last runs —
// kernel, processes, input trace, deadline sink, collector hook — and
// keeps their arrays.
func (in *Instances) Clear() {
	in.mpeg.clear()
	in.web.clear()
	in.chess.clear()
	in.editor.clear()
	in.feedback.clear()
	in.rect.clear()
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

// eventHandler answers one input event of an eventDriven process. Its
// response's actions are appended to buf, an empty slice whose array the
// process reuses once they have run.
type eventHandler interface {
	respond(now sim.Time, e trace.Event, buf []kernel.Action) response
}

// eventDriven is a process that sleeps until input events arrive (delivered
// by the trace installer through Wake) and runs a queue of actions in
// response to each, like the paper's traced interactive applications. When
// an event's actions drain, the completion time is recorded against the
// event's deadline.
type eventDriven struct {
	name    string
	col     *metrics.Collector
	h       eventHandler
	pending []trace.Event // events pending[head:] await handling
	head    int
	actions []kernel.Action
	buf     []kernel.Action // the array responses append their actions to
	cur     response
	inEvent bool
	replay  replay // the cursor of the trace installTrace replays into p
}

// renew readies p to run as name, recording into col and answered by h,
// keeping its event and action arrays. renew("", nil, nil) leaves p
// referencing nothing.
func (p *eventDriven) renew(name string, col *metrics.Collector, h eventHandler) {
	clear(p.pending[:cap(p.pending)])
	clear(p.buf[:cap(p.buf)])
	*p = eventDriven{name: name, col: col, h: h, pending: p.pending[:0], buf: p.buf[:0]}
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
		if p.head == len(p.pending) {
			return kernel.WaitEvent()
		}
		e := p.pending[p.head]
		if p.head++; p.head == len(p.pending) {
			p.pending, p.head = p.pending[:0], 0
		}
		p.cur = p.h.respond(now, e, p.buf[:0])
		if cap(p.cur.actions) > cap(p.buf) {
			p.buf = p.cur.actions[:0]
		}
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

// installTrace arranges for every event of tr to be delivered to p at its
// recorded time, reproducing the paper's millisecond-accurate replay.
//
// Replay is lazy: a 2 s session cut from a 190 s trace fires a handful of
// its events, so only event 0 is scheduled up front and each event
// schedules its successor as it fires. The successor takes a sequence
// number reserved at install time, so it ties against other events at its
// instant exactly as it would have had the whole trace been scheduled
// here, and the engine's Pending count includes the events not yet
// scheduled. Events are read from tr as they fire, so tr must not change
// once installed.
func installTrace(k *kernel.Kernel, p *eventDriven, proc *kernel.Process, tr *trace.Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	if len(tr.Events) == 0 {
		return nil
	}
	eng := k.Engine()
	r := &p.replay
	*r = replay{k: k, p: p, proc: proc, events: tr.Events, base: eng.Reserve(len(tr.Events))}
	r.fire = r.step
	_, err := eng.AtReserved(tr.Events[0].At, r.base, r.fire)
	return err
}

// replay is the cursor of one lazily scheduled trace: next is the index of
// the event whose delivery is queued, fire the prebound closure that
// delivers it.
type replay struct {
	k      *kernel.Kernel
	p      *eventDriven
	proc   *kernel.Process
	events []trace.Event
	base   uint64
	next   int
	fire   sim.Event
}

// step delivers the queued event after scheduling its successor, which
// Validate's time order guarantees is not in the past.
func (r *replay) step(sim.Time) {
	i := r.next
	r.next++
	if r.next < len(r.events) {
		eng := r.k.Engine()
		if _, err := eng.AtReserved(r.events[r.next].At, r.base+uint64(r.next), r.fire); err != nil {
			eng.Fail(err)
			return
		}
	}
	r.p.deliver(r.k, r.proc, r.events[i])
}

// errReinstall is returned when Install is called twice.
var errReinstall = errors.New("workload: already installed")
