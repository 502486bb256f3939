package sim

import (
	"errors"
	"fmt"

	"clocksched/internal/telemetry"
)

// Event is a callback scheduled to fire at a specific virtual time.
type Event func(now Time)

// scheduled is one pending event in the queue. seq breaks ties so that two
// events at the same instant fire in the order they were scheduled,
// keeping runs deterministic. Nodes are recycled through the engine's free
// list once fired or cancelled; gen counts recycles so a stale Handle can
// never cancel the node's next occupant.
type scheduled struct {
	at    Time
	seq   uint64
	gen   uint64
	fn    Event
	index int // heap index; -1 once popped or cancelled
}

// eventQueue is a min-heap ordered by (at, seq), maintained by hand (no
// container/heap) so the hot path pays no interface boxing or indirect
// calls: a 60-second run schedules and fires tens of thousands of events.
type eventQueue []*scheduled

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q eventQueue) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && q.less(r, l) {
			least = r
		}
		if !q.less(least, i) {
			return
		}
		q.swap(i, least)
		i = least
	}
}

// push adds s to the heap.
func (q *eventQueue) push(s *scheduled) {
	s.index = len(*q)
	*q = append(*q, s)
	q.up(s.index)
}

// popMin removes and returns the earliest event.
func (q *eventQueue) popMin() *scheduled {
	old := *q
	s := old[0]
	n := len(old) - 1
	old.swap(0, n)
	old[n] = nil
	*q = old[:n]
	if n > 0 {
		(*q).down(0)
	}
	s.index = -1
	return s
}

// remove deletes the event at heap index i.
func (q *eventQueue) remove(i int) {
	old := *q
	n := len(old) - 1
	s := old[i]
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	*q = old[:n]
	if i != n {
		(*q).down(i)
		(*q).up(i)
	}
	s.index = -1
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and cancels nothing. A Handle kept past its event's
// firing (or cancellation) is harmless: the generation check rejects it
// even after the underlying node has been recycled for another event.
type Handle struct {
	e   *scheduled
	gen uint64
}

// Engine is a discrete-event simulator. The zero value is ready to use and
// starts at time zero.
type Engine struct {
	now    Time
	queue  eventQueue
	free   []*scheduled // recycled nodes, reused by At
	seq    uint64
	fired  uint64
	halted bool
	err    error

	// reserved holds the sequence-number ranges handed out by Reserve;
	// held counts the seqs in them not yet scheduled by AtReserved.
	reserved []reservation
	held     int

	// MaxEvents, when non-zero, bounds how many events a run may fire.
	// Exceeding it records an ErrEventCap failure and halts the run: a
	// runaway schedule (an event loop re-arming itself at the same
	// instant, say) terminates with a diagnostic instead of hanging the
	// host process.
	MaxEvents uint64

	// Telemetry instruments; nil (the default) when telemetry is disabled,
	// in which case the hot path pays one nil check per operation.
	telFired *telemetry.Counter
	telDepth *telemetry.Gauge
}

// Instrument attaches telemetry instruments to the engine. A nil registry
// detaches them (sim_events_fired_total, sim_event_queue_depth).
func (e *Engine) Instrument(reg *telemetry.Registry) {
	e.telFired = reg.Counter(telemetry.MSimEventsFired)
	e.telDepth = reg.Gauge(telemetry.MSimQueueDepth)
}

// Reset returns the engine to its zero state — time zero, nothing queued,
// reserved or fired, no failure, no event cap, no telemetry — while keeping
// its queue's backing array and its recycled nodes, so the next run
// schedules without allocating. Every queued node is recycled, which bumps
// its generation: a Handle taken before Reset cancels nothing after it.
// Reset drops every callback the engine held.
func (e *Engine) Reset() {
	for _, s := range e.queue {
		s.index = -1
		e.recycle(s)
	}
	clear(e.queue)
	clear(e.reserved)
	*e = Engine{queue: e.queue[:0], free: e.free, reserved: e.reserved[:0]}
}

// ErrPast is returned when an event is scheduled before the current time.
var ErrPast = errors.New("sim: event scheduled in the past")

// ErrEventCap is the failure recorded when a run exceeds Engine.MaxEvents.
var ErrEventCap = errors.New("sim: event-count cap exceeded")

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have fired so far; useful for loop bounds in
// tests and for diagnosing runaway schedules.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events still queued, counting each
// sequence number held by Reserve as the event it stands for.
func (e *Engine) Pending() int { return len(e.queue) + e.held }

// recycle returns a fired or cancelled node to the free list for the next
// At. The generation bump invalidates every Handle still pointing at it.
func (e *Engine) recycle(s *scheduled) {
	s.gen++
	s.fn = nil
	e.free = append(e.free, s)
}

// At schedules fn to fire at absolute time t. Scheduling at the current time
// is allowed — the event fires before time advances further.
func (e *Engine) At(t Time, fn Event) (Handle, error) {
	if err := e.checkEvent(t, fn); err != nil {
		return Handle{}, err
	}
	h := e.schedule(t, e.seq, fn)
	e.seq++
	return h, nil
}

// ErrNotReserved is returned by AtReserved for a sequence number that
// Reserve did not hand out, or that an earlier AtReserved already used.
var ErrNotReserved = errors.New("sim: sequence number not reserved")

// reservation is one block of sequence numbers handed out by Reserve;
// bit i of used is set once base+i has been scheduled.
type reservation struct {
	base, n uint64
	used    []uint64
}

// Reserve sets aside n consecutive sequence numbers, exactly those the
// next n calls to At would have taken, and returns the first. An event
// later scheduled with AtReserved(t, base+i, fn) orders against every
// other event as if At(t, fn) had been called now: it ties at its instant
// in the order it was reserved, not the order it was scheduled. This lets
// a caller with a long, time-ordered list of future events (a replayed
// input trace) schedule each one only when its predecessor fires, while
// the run fires in exactly the order of scheduling them all up front.
// Held numbers count in Pending.
func (e *Engine) Reserve(n int) (base uint64) {
	base = e.seq
	if n <= 0 {
		return base
	}
	e.seq += uint64(n)
	e.reserved = append(e.reserved, reservation{
		base: base, n: uint64(n), used: make([]uint64, (n+63)/64),
	})
	e.held += n
	e.telDepth.Set(float64(e.Pending()))
	return base
}

// AtReserved schedules fn at absolute time t under a sequence number held
// by Reserve. It rejects a past t, a nil fn, and a seq that was never
// reserved or has already been used.
func (e *Engine) AtReserved(t Time, seq uint64, fn Event) (Handle, error) {
	if err := e.checkEvent(t, fn); err != nil {
		return Handle{}, err
	}
	for i := range e.reserved {
		r := &e.reserved[i]
		if seq < r.base || seq-r.base >= r.n {
			continue
		}
		off := seq - r.base
		word, bit := off/64, uint64(1)<<(off%64)
		if r.used[word]&bit != 0 {
			break
		}
		r.used[word] |= bit
		e.held--
		return e.schedule(t, seq, fn), nil
	}
	return Handle{}, fmt.Errorf("%w: %d", ErrNotReserved, seq)
}

// checkEvent validates a time and callback for At and AtReserved.
func (e *Engine) checkEvent(t Time, fn Event) error {
	if t < e.now {
		return fmt.Errorf("%w: at %v, now %v", ErrPast, t, e.now)
	}
	if fn == nil {
		return errors.New("sim: nil event")
	}
	return nil
}

// schedule queues fn at (t, seq) on a recycled node when one is free.
func (e *Engine) schedule(t Time, seq uint64, fn Event) Handle {
	var s *scheduled
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		s.at, s.seq, s.fn = t, seq, fn
	} else {
		s = &scheduled{at: t, seq: seq, fn: fn}
	}
	e.queue.push(s)
	e.telDepth.Set(float64(e.Pending()))
	return Handle{e: s, gen: s.gen}
}

// After schedules fn to fire d microseconds from now. A non-positive delay
// fires at the current instant.
func (e *Engine) After(d Duration, fn Event) (Handle, error) {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already fired or was already cancelled).
func (e *Engine) Cancel(h Handle) bool {
	s := h.e
	if s == nil || s.gen != h.gen || s.index < 0 {
		return false
	}
	e.queue.remove(s.index)
	e.recycle(s)
	e.telDepth.Set(float64(e.Pending()))
	return true
}

// Halt stops the run loop after the currently-firing event returns.
func (e *Engine) Halt() { e.halted = true }

// Fail records err as the run's failure and halts the run loop. Only the
// first failure is kept; later calls halt again but do not overwrite it.
// Event callbacks cannot return errors, so this is how an event reports an
// internal inconsistency to whoever called Run or RunUntil.
func (e *Engine) Fail(err error) {
	if err == nil {
		return
	}
	if e.err == nil {
		e.err = err
	}
	e.halted = true
}

// Err returns the failure recorded by Fail (or the event-cap guard), if any.
func (e *Engine) Err() error { return e.err }

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty or a failure has been
// recorded.
func (e *Engine) Step() bool {
	if e.err != nil || len(e.queue) == 0 {
		return false
	}
	if e.MaxEvents > 0 && e.fired >= e.MaxEvents {
		e.Fail(fmt.Errorf("%w: %d events fired by %v with %d still pending",
			ErrEventCap, e.fired, e.now, e.Pending()))
		return false
	}
	s := e.queue.popMin()
	e.now = s.at
	e.fired++
	e.telFired.Inc()
	e.telDepth.Set(float64(e.Pending()))
	fn := s.fn
	// Recycle before firing: fn may schedule new events, and the bumped
	// generation already protects the node from the firing event's own
	// (now stale) Handle.
	e.recycle(s)
	fn(e.now)
	return true
}

// Run fires events until the queue drains, Halt is called, or a failure is
// recorded; it returns the recorded failure, if any.
func (e *Engine) Run() error {
	e.halted = false
	for !e.halted && e.Step() {
	}
	return e.err
}

// RunUntil fires events with timestamps ≤ end, then sets the clock to end.
// Events scheduled beyond end remain queued. It returns the failure
// recorded during the run, if any; after a failure the clock stays at the
// failing instant.
func (e *Engine) RunUntil(end Time) error {
	e.halted = false
	for !e.halted && e.err == nil && len(e.queue) > 0 && e.queue[0].at <= end {
		e.Step()
	}
	if !e.halted && e.err == nil && e.now < end {
		e.now = end
	}
	return e.err
}

// Every schedules fn to fire now+period, now+2·period, … until either fn
// returns false or the engine halts. It returns an error if period is not
// positive.
func (e *Engine) Every(period Duration, fn func(now Time) bool) error {
	if period <= 0 {
		return fmt.Errorf("sim: Every with non-positive period %v", period)
	}
	var tick Event
	tick = func(now Time) {
		if !fn(now) {
			return
		}
		// Re-arm. Scheduling from inside an event cannot fail — now+period
		// is strictly in the future — but surface any failure rather than
		// assuming.
		if _, err := e.At(now+period, tick); err != nil {
			e.Fail(err)
		}
	}
	_, err := e.After(period, tick)
	return err
}
