package workload

import (
	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/metrics"
	"clocksched/internal/sim"
	"clocksched/internal/trace"
)

// Chess models the paper's 218-second Crafty game through a Java interface:
// a novice player thinks (near-idle stretches, only the UI and polling loop
// ticking) and then Crafty plans. Crafty "uses a play book for opening
// moves and then plays for specific periods of time in later stages",
// playing the best move found when time expires — so planning is busy for
// a fixed wall-clock span no matter the clock step, which is why the
// utilization plots pin at 100% during planning at any frequency.
type Chess struct {
	tr        *trace.Trace
	col       metrics.Collector
	ui        eventDriven
	poll      JavaPoll
	rng       sim.RNG // Crafty's plan-time jitter
	installed bool
}

// UI repaint work for moves (at-full-speed scale).
var chessBoardBurst = cpu.Burst{Core: 5_000_000, Mem: 150_000, Cache: 40_000}

// Opening-book replies are near-instant lookups.
const chessBookTime = 120 * sim.Millisecond

// chessTraceMaxEvents bounds DefaultChessTrace's event count: eight book
// moves (gaps ≥ 2 s, so the ninth comes no earlier than 18 s), then at
// most 39 moves before 210 s with gaps ≥ 5 s.
const chessTraceMaxEvents = 8 + 39

// DefaultChessTrace generates the deterministic game: "usermove" events
// whose Arg is the move number. Early moves come quickly (both sides in
// book); later ones follow long novice think times.
func DefaultChessTrace(seed uint64) *trace.Trace {
	return DefaultChessTraceInto(new(trace.Recorder), seed)
}

// DefaultChessTraceInto generates DefaultChessTrace(seed) into
// rec, which it resets, and returns rec's trace.
func DefaultChessTraceInto(rec *trace.Recorder, seed uint64) *trace.Trace {
	rng := sim.NewRNG(seed)
	rec.Reset("chess", chessTraceMaxEvents)
	now := 2 * sim.Second
	move := int64(1)
	for now < 210*sim.Second {
		rec.Add(now, "usermove", move)
		var think sim.Duration
		if move <= 8 {
			think = rng.Duration(2*sim.Second, 5*sim.Second)
		} else {
			// The novice slows down (and loses, badly).
			think = rng.Duration(5*sim.Second, 15*sim.Second)
		}
		// Crafty's reply time is part of the gap before the next user
		// move; the handler models it explicitly.
		now += think
		move++
	}
	tr, err := rec.Finish()
	if err != nil {
		panic(err)
	}
	return tr
}

// craftyPlanTime is how long Crafty searches for a given move number: book
// moves are instant, middlegame searches run a few seconds of wall time.
func craftyPlanTime(move int64, rng *sim.RNG) sim.Duration {
	if move <= 8 {
		return chessBookTime
	}
	return rng.Duration(1500*sim.Millisecond, 4*sim.Second)
}

// NewChess builds the workload from an input trace; nil selects
// DefaultChessTrace(1).
func NewChess(tr *trace.Trace) (*Chess, error) { return new(Chess).renew(tr) }

// renew makes c what NewChess(tr) returns, keeping its arrays.
func (c *Chess) renew(tr *trace.Trace) (*Chess, error) {
	if tr == nil {
		tr = DefaultChessTrace(1)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	c.clear()
	c.tr = tr
	return c, nil
}

// clear drops every reference c holds to its last run.
func (c *Chess) clear() {
	c.col.Reset()
	c.ui.renew("", nil, nil)
	*c = Chess{col: c.col, ui: c.ui}
}

// Name implements Workload.
func (c *Chess) Name() string { return "Chess" }

// Duration implements Workload.
func (c *Chess) Duration() sim.Duration { return 218 * sim.Second }

// Metrics implements Workload.
func (c *Chess) Metrics() *metrics.Collector { return &c.col }

// Install implements Workload.
func (c *Chess) Install(k *kernel.Kernel) error {
	if c.installed {
		return errReinstall
	}
	c.installed = true
	c.rng = *sim.NewRNG(7) // plan-time jitter, independent of the trace seed
	c.ui.renew("crafty", &c.col, c)
	proc, err := k.Spawn(&c.ui)
	if err != nil {
		return err
	}
	if err := installTrace(k, &c.ui, proc, c.tr); err != nil {
		return err
	}
	c.poll = JavaPoll{length: c.Duration()}
	_, err = k.Spawn(&c.poll)
	return err
}

// respond renders the user's move, lets Crafty search and renders its
// reply.
func (c *Chess) respond(now sim.Time, e trace.Event, buf []kernel.Action) response {
	if e.Kind != "usermove" {
		return response{}
	}
	plan := craftyPlanTime(e.Arg, &c.rng)
	return response{
		actions: append(buf,
			kernel.Compute(chessBoardBurst), // render the user's move
			kernel.ComputeFor(plan),         // Crafty searches in wall time
			kernel.Compute(chessBoardBurst), // render the reply
		),
		// The reply should appear promptly once the search's time
		// allotment expires.
		stream: "reply",
		seq:    int(e.Arg),
		due:    e.At + plan + 500*sim.Millisecond,
	}
}
