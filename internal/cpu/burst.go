package cpu

import (
	"fmt"

	"clocksched/internal/sim"
)

// Burst is a unit of computational work expressed in architectural terms:
// core-bound cycles plus explicit memory traffic. Because memory-word and
// cache-line accesses cost more cycles at higher clock steps (Table 3), the
// wall-clock duration of a Burst does not scale linearly with frequency —
// this is the mechanism behind the paper's Figure 9 plateau and the
// "non-linear relationship between power and clock speed" noted by Martin.
type Burst struct {
	Core  int64 // cycles that hit in cache and scale perfectly with frequency
	Mem   int64 // individual memory-word references
	Cache int64 // full cache-line fills
}

// Zero reports whether the burst contains no work.
func (b Burst) Zero() bool { return b.Core == 0 && b.Mem == 0 && b.Cache == 0 }

// Cycles returns the total processor cycles the burst consumes at step s.
func (b Burst) Cycles(s Step) int64 {
	return b.Core + b.Mem*s.MemCycles() + b.Cache*s.CacheLineCycles()
}

// Duration returns the wall-clock time the burst takes at step s, rounded up
// to the next microsecond. A non-empty burst always takes at least 1 µs.
func (b Burst) Duration(s Step) sim.Duration {
	c := b.Cycles(s)
	if c <= 0 {
		return 0
	}
	khz := s.KHz()
	// cycles per microsecond = kHz / 1000, so µs = cycles*1000/kHz.
	return sim.Duration((c*1000 + khz - 1) / khz)
}

// Scale returns the burst with every component multiplied by f (rounded to
// nearest). Negative results clamp to zero.
func (b Burst) Scale(f float64) Burst {
	scale := func(v int64) int64 {
		x := float64(v)*f + 0.5
		if x < 0 {
			return 0
		}
		return int64(x)
	}
	return Burst{Core: scale(b.Core), Mem: scale(b.Mem), Cache: scale(b.Cache)}
}

// Add returns the component-wise sum of two bursts.
func (b Burst) Add(o Burst) Burst {
	return Burst{Core: b.Core + o.Core, Mem: b.Mem + o.Mem, Cache: b.Cache + o.Cache}
}

// String describes the burst compactly.
func (b Burst) String() string {
	return fmt.Sprintf("burst{core=%d mem=%d cache=%d}", b.Core, b.Mem, b.Cache)
}

// Execution tracks the progress of one burst across preemptions and clock
// changes. The instruction mix is assumed uniform across the burst, so a
// fraction f of elapsed progress retires a fraction f of each component.
type Execution struct {
	burst     Burst
	remaining float64 // fraction of the burst still to run, in [0,1]
}

// StartExecution returns an Execution running b from the beginning, by
// value, so callers owning the storage (the kernel's process table) can
// start a burst without a per-action heap allocation.
func StartExecution(b Burst) Execution {
	return Execution{burst: b, remaining: 1}
}

// Done reports whether the burst has fully retired.
func (e *Execution) Done() bool { return e.remaining <= 0 || e.burst.Zero() }

// Remaining returns the fraction of the burst still to run.
func (e *Execution) Remaining() float64 {
	if e.remaining < 0 {
		return 0
	}
	return e.remaining
}

// Burst returns the burst being executed.
func (e *Execution) Burst() Burst { return e.burst }

// TimeToFinish returns how long the rest of the burst takes at step s,
// rounded up to a whole microsecond (minimum 1 µs if any work remains).
func (e *Execution) TimeToFinish(s Step) sim.Duration {
	if e.Done() {
		return 0
	}
	full := e.burst.Duration(s)
	d := sim.Duration(float64(full)*e.remaining + 0.999999)
	if d < 1 {
		d = 1
	}
	return d
}

// Advance runs the burst for d microseconds at step s and reports whether it
// finished. Advancing a finished execution is a no-op that reports true.
func (e *Execution) Advance(d sim.Duration, s Step) bool {
	if e.Done() {
		return true
	}
	full := e.burst.Duration(s)
	if full <= 0 {
		e.remaining = 0
		return true
	}
	e.remaining -= float64(d) / float64(full)
	// Guard against accumulated floating-point residue: if less than a
	// microsecond of work remains, call it done.
	if e.remaining*float64(full) < 1 {
		e.remaining = 0
	}
	return e.Done()
}
