package power

import (
	"errors"
	"fmt"
	"sort"

	"clocksched/internal/sim"
)

// TimePoint is one change-point in a piecewise-constant power timeline: the
// system drew Watts from At until the next point.
type TimePoint struct {
	At    sim.Time
	Watts float64
}

// Recorder accumulates the exact piecewise-constant power timeline of a run.
// The kernel reports every state change; energy integrals over the recorded
// span are then exact, and the simulated DAQ samples the same timeline at
// 5 kHz the way the real instrument sampled the shunt resistor.
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

// Model returns the power model in use.
func (r *Recorder) Model() Model { return r.model }

// ErrClosed is returned for state changes after Finish.
var ErrClosed = errors.New("power: state change after Finish")

// ErrOrder is returned for state changes that move backwards in time.
var ErrOrder = errors.New("power: state change out of time order")

// ErrStreamed is returned by timeline queries on a streaming recorder: its
// segments went to the sink, so it cannot answer for the past.
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
// recorder then keeps O(1) state, and Points, PowerAt and Energy return
// ErrStreamed.
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
// return ErrClosed. Energy and PowerAt remain usable up to end; a streaming
// recorder hands its remaining segments to the sink instead.
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

// ErrRange is returned for queries outside the recorded timeline.
var ErrRange = errors.New("power: query outside recorded timeline")

// PowerAt returns the instantaneous power at time t.
func (r *Recorder) PowerAt(t sim.Time) (float64, error) {
	if r.sink != nil {
		return 0, ErrStreamed
	}
	if t < 0 || t > r.last {
		return 0, ErrRange
	}
	// Binary search for the last point with At <= t.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].At > t })
	return r.points[i-1].Watts, nil
}

// Energy integrates power over [from, to] exactly, returning joules.
func (r *Recorder) Energy(from, to sim.Time) (float64, error) {
	if r.sink != nil {
		return 0, ErrStreamed
	}
	if from < 0 || to > r.last || from > to {
		return 0, ErrRange
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].At > from }) - 1
	total := 0.0
	for t := from; t < to; {
		segEnd := to
		if i+1 < len(r.points) && r.points[i+1].At < to {
			segEnd = r.points[i+1].At
		}
		total += r.points[i].Watts * (segEnd - t).Seconds()
		t = segEnd
		i++
	}
	return total, nil
}

// AveragePower returns the mean power over [from, to] in watts.
func (r *Recorder) AveragePower(from, to sim.Time) (float64, error) {
	if to <= from {
		return 0, ErrRange
	}
	e, err := r.Energy(from, to)
	if err != nil {
		return 0, err
	}
	return e / (to - from).Seconds(), nil
}
