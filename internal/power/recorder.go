package power

import (
	"errors"
	"fmt"

	"clocksched/internal/sim"
)

// TimePoint is one change-point in a piecewise-constant power timeline: the
// system drew Watts from At until the next point.
type TimePoint struct {
	At    sim.Time
	Watts float64
}

// Recorder accumulates the exact piecewise-constant power timeline of a run.
// The kernel reports every state change, and the simulated DAQ samples the
// timeline at 5 kHz the way the real instrument sampled the shunt resistor.
//
// A recorder either retains the whole timeline (the default) or, after
// Stream, hands each final segment to a sink and keeps only the last two
// change-points — all the same-instant revision rule can still touch.
type Recorder struct {
	model  Model
	points []TimePoint
	last   sim.Time // latest time seen; timeline is valid up to here
	closed bool
	// sink, when non-nil, receives every final segment; points then holds
	// only the trailing change-points that may still be revised.
	sink func(from, to sim.Time, watts float64)
}

// NewRecorder creates a recorder that starts at time 0 in the given state.
func NewRecorder(m Model, initial State) *Recorder {
	r := &Recorder{model: m}
	r.points = append(r.points, TimePoint{At: 0, Watts: m.Power(initial)})
	return r
}

// Reset starts the recorder over as NewRecorder(m, initial) would, keeping
// its points array. A recorder that retained a long timeline keeps that
// array too, so reset only one that streamed or recorded little.
func (r *Recorder) Reset(m Model, initial State) {
	*r = Recorder{model: m, points: append(r.points[:0], TimePoint{At: 0, Watts: m.Power(initial)})}
}

// Model returns the power model in use.
func (r *Recorder) Model() Model { return r.model }

// ErrClosed is returned for state changes after Finish.
var ErrClosed = errors.New("power: state change after Finish")

// ErrOrder is returned for state changes that move backwards in time.
var ErrOrder = errors.New("power: state change out of time order")

// ErrStreamed is returned by Points on a streaming recorder: its segments
// went to the sink, so it cannot answer for the past.
var ErrStreamed = errors.New("power: timeline was streamed, not retained")

// SetState records that the system entered st at time now. Calls must be in
// nondecreasing time order; an out-of-order call returns ErrOrder, since
// the kernel driving the recorder is single-threaded virtual time and
// regression means its event schedule is inconsistent.
func (r *Recorder) SetState(now sim.Time, st State) error {
	return r.setWatts(now, r.model.Power(st))
}

// SetWatts records a raw power level, for experiments that bypass the model
// (e.g. injecting a measured trace).
func (r *Recorder) SetWatts(now sim.Time, w float64) error { return r.setWatts(now, w) }

func (r *Recorder) setWatts(now sim.Time, w float64) error {
	if r.closed {
		return fmt.Errorf("%w: at %v", ErrClosed, now)
	}
	if now < r.last {
		return fmt.Errorf("%w: %v after %v", ErrOrder, now, r.last)
	}
	r.last = now
	last := &r.points[len(r.points)-1]
	if last.Watts == w {
		return nil // no change; keep the timeline minimal
	}
	if last.At == now {
		// Same-instant revision (e.g. step change and mode change in one
		// event): the later write wins.
		last.Watts = w
		// Collapse if this made it equal to its predecessor.
		if n := len(r.points); n >= 2 && r.points[n-2].Watts == w {
			r.points = r.points[:n-1]
		}
		return nil
	}
	r.points = append(r.points, TimePoint{At: now, Watts: w})
	if r.sink != nil {
		// The point before the new one can no longer be revised or
		// collapsed, so the segment ending at it is final.
		r.flush(2)
	}
	return nil
}

// Stream switches the recorder to streaming: from now on each segment of
// the timeline — its start, end and power — goes to sink, in time order, as
// soon as no later state change can alter it, and Finish flushes the rest.
// Segments already final when Stream is called are flushed at once. The
// recorder then keeps O(1) state, and Points returns ErrStreamed.
func (r *Recorder) Stream(sink func(from, to sim.Time, watts float64)) error {
	if r.closed {
		return ErrClosed
	}
	if sink == nil {
		return errors.New("power: nil stream sink")
	}
	r.sink = sink
	r.flush(2)
	return nil
}

// flush hands all but the last keep change-points' segments to the sink.
func (r *Recorder) flush(keep int) {
	n := len(r.points) - keep
	if n <= 0 {
		return
	}
	for i := 0; i < n; i++ {
		r.sink(r.points[i].At, r.points[i+1].At, r.points[i].Watts)
	}
	r.points = r.points[:copy(r.points, r.points[n:])]
}

// Finish marks the timeline complete at time end. Further SetState calls
// return ErrClosed. A retaining recorder's Points then describe the
// timeline up to end; a streaming recorder hands its remaining segments to
// the sink instead.
func (r *Recorder) Finish(end sim.Time) error {
	if r.closed && r.sink != nil {
		return fmt.Errorf("%w: streamed timeline already flushed", ErrClosed)
	}
	if end < r.last {
		return fmt.Errorf("%w: finish at %v before last change at %v", ErrOrder, end, r.last)
	}
	r.last = end
	r.closed = true
	if r.sink != nil {
		r.flush(1)
		p := r.points[0]
		r.sink(p.At, end, p.Watts)
	}
	return nil
}

// End returns the latest time covered by the timeline.
func (r *Recorder) End() sim.Time { return r.last }

// Points returns the recorded change-points. The slice is the recorder's
// own; callers must not modify it.
func (r *Recorder) Points() ([]TimePoint, error) {
	if r.sink != nil {
		return nil, ErrStreamed
	}
	return r.points, nil
}
