package workload

import (
	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/metrics"
	"clocksched/internal/sim"
	"clocksched/internal/trace"
)

// Web models the paper's browsing session: a JavaBean IceWeb browser
// viewing locally-stored content — a news article scrolled and read in
// full, then a return to the root menu and a table-heavy technical report
// (WRL TN-56). The overall trace is 190 seconds. Being a Java application
// it carries the Kaffe 30 ms polling loop.
type Web struct {
	tr        *trace.Trace
	col       metrics.Collector
	installed bool
}

// Rendering work per event kind, at-full-speed scale. Opens JIT and lay
// out a whole page; scrolls repaint a screenful; "back" repaints the menu.
var (
	webOpenBurst   = cpu.Burst{Core: 40_000_000, Mem: 1_500_000, Cache: 400_000}
	webScrollBurst = cpu.Burst{Core: 8_000_000, Mem: 300_000, Cache: 80_000}
	webBackBurst   = cpu.Burst{Core: 4_000_000, Mem: 120_000, Cache: 30_000}
)

// Interactive responsiveness deadlines: the user should not perceive the
// response as delayed.
const (
	webOpenDeadline   = 800 * sim.Millisecond
	webScrollDeadline = 250 * sim.Millisecond
)

// webTraceMaxEvents bounds DefaultWebTrace's event count: the opening
// page, at most 34 article scrolls (0.5 s to 85 s, each gap ≥ 2.5 s), back
// and open, then at most 49 report scrolls (88.5 s to 185 s, gaps ≥ 2 s).
const webTraceMaxEvents = 1 + 34 + 2 + 49

// DefaultWebTrace generates the deterministic 190 s browsing session.
// Event kinds: "open" (arg = page weight in tenths, 10 = the news article,
// 15 = the table-heavy TN-56), "scroll" (arg = distance weight in tenths),
// "back".
func DefaultWebTrace(seed uint64) *trace.Trace {
	return DefaultWebTraceInto(new(trace.Recorder), seed)
}

// DefaultWebTraceInto generates DefaultWebTrace(seed) into
// rec, which it resets, and returns rec's trace.
func DefaultWebTraceInto(rec *trace.Recorder, seed uint64) *trace.Trace {
	rng := sim.NewRNG(seed)
	rec.Reset("web", webTraceMaxEvents)
	now := 500 * sim.Millisecond
	rec.Add(now, "open", 10) // the www.news.com article about the Itsy

	// Scroll through the article, reading between scrolls.
	for now < 85*sim.Second {
		now += rng.Duration(2500*sim.Millisecond, 6*sim.Second)
		rec.Add(now, "scroll", 8+rng.Int63n(5))
	}
	// Back to the root menu, then open TN-56.
	now += 2 * sim.Second
	rec.Add(now, "back", 0)
	now += 1500 * sim.Millisecond
	rec.Add(now, "open", 15)
	// Scroll through the tables until the session ends.
	for now < 185*sim.Second {
		now += rng.Duration(2*sim.Second, 5*sim.Second)
		rec.Add(now, "scroll", 8+rng.Int63n(7))
	}
	tr, err := rec.Finish()
	if err != nil {
		panic(err) // deterministic construction cannot produce a bad trace
	}
	return tr
}

// NewWeb builds the workload from an input trace; nil selects
// DefaultWebTrace(1).
func NewWeb(tr *trace.Trace) (*Web, error) {
	if tr == nil {
		tr = DefaultWebTrace(1)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &Web{tr: tr}, nil
}

// Name implements Workload.
func (w *Web) Name() string { return "Web" }

// Duration implements Workload.
func (w *Web) Duration() sim.Duration { return 190 * sim.Second }

// Metrics implements Workload.
func (w *Web) Metrics() *metrics.Collector { return &w.col }

// Install implements Workload.
func (w *Web) Install(k *kernel.Kernel) error {
	if w.installed {
		return errReinstall
	}
	w.installed = true
	seq := 0
	prog := &eventDriven{
		name: "iceweb",
		col:  &w.col,
		handle: func(now sim.Time, e trace.Event) response {
			seq++
			switch e.Kind {
			case "open":
				return response{
					actions: []kernel.Action{kernel.Compute(webOpenBurst.Scale(float64(e.Arg) / 10))},
					stream:  "open",
					seq:     seq,
					due:     e.At + webOpenDeadline,
				}
			case "scroll":
				return response{
					actions: []kernel.Action{kernel.Compute(webScrollBurst.Scale(float64(e.Arg) / 10))},
					stream:  "scroll",
					seq:     seq,
					due:     e.At + webScrollDeadline,
				}
			case "back":
				return response{
					actions: []kernel.Action{kernel.Compute(webBackBurst)},
					stream:  "back",
					seq:     seq,
					due:     e.At + webScrollDeadline,
				}
			default:
				return response{} // unknown events are ignored
			}
		},
	}
	proc, err := k.Spawn(prog)
	if err != nil {
		return err
	}
	if err := installTrace(k, prog, proc, w.tr); err != nil {
		return err
	}
	_, err = k.Spawn(NewJavaPoll(w.Duration()))
	return err
}
