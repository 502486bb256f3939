package policy

import (
	"fmt"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
)

// QuantumPolicy is the per-quantum decision interface the watchdog
// supervises. It is structurally identical to the kernel's SpeedPolicy, so
// any installable policy (Governor, Proportional, ZooScheduler,
// Constant) can be wrapped without this package importing the kernel.
type QuantumPolicy interface {
	OnQuantum(now sim.Time, utilPP10K int, s cpu.Step, v cpu.Voltage) (cpu.Step, cpu.Voltage)
}

// WatchdogConfig tunes the supervisory detectors. The zero value selects
// the defaults below; explicit fields override individually.
type WatchdogConfig struct {
	// Window is how many recent quanta the oscillation detector examines.
	Window int
	// MaxReversals trips the oscillation detector: this many direction
	// reversals (an up-step after a down-step or vice versa) within
	// Window quanta means the policy is flip-flopping rather than
	// converging, burning a 200 µs PLL relock each time.
	MaxReversals int
	// PegQuanta trips the pegging detector: this many consecutive quanta
	// at the minimum clock step with utilization at or above PegUtil
	// means work is saturating a policy that refuses to speed up.
	PegQuanta int
	// PegUtil is the PP10K utilization the pegging detector considers
	// saturated.
	PegUtil int
	// MissStreak trips the deadline detector: this many consecutive late
	// deadlines reported via NoteDeadline.
	MissStreak int
	// SafeQuanta is how long the first trip holds safe mode before the
	// inner policy is re-admitted. Each further trip doubles the hold, up
	// to MaxSafeQuanta — the hysteresis that keeps a persistently broken
	// policy from flapping in and out of safe mode.
	SafeQuanta int
	// MaxSafeQuanta caps the escalation.
	MaxSafeQuanta int
}

// DefaultWatchdogConfig returns the standard detector settings: a 16-quantum
// oscillation window tripping at 6 reversals, pegging after 50 saturated
// quanta (half a second) at the minimum step, 8 straight missed deadlines,
// and a 100-quantum (1 s) initial safe hold escalating to 800.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{
		Window:        16,
		MaxReversals:  6,
		PegQuanta:     50,
		PegUtil:       9900,
		MissStreak:    8,
		SafeQuanta:    100,
		MaxSafeQuanta: 800,
	}
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	d := DefaultWatchdogConfig()
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.MaxReversals == 0 {
		c.MaxReversals = d.MaxReversals
	}
	if c.PegQuanta == 0 {
		c.PegQuanta = d.PegQuanta
	}
	if c.PegUtil == 0 {
		c.PegUtil = d.PegUtil
	}
	if c.MissStreak == 0 {
		c.MissStreak = d.MissStreak
	}
	if c.SafeQuanta == 0 {
		c.SafeQuanta = d.SafeQuanta
	}
	if c.MaxSafeQuanta == 0 {
		c.MaxSafeQuanta = 8 * c.SafeQuanta
	}
	return c
}

// Validate checks a fully-defaulted config for sanity.
func (c WatchdogConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Window < 2:
		return fmt.Errorf("policy: watchdog window %d is too short", c.Window)
	case c.MaxReversals < 1 || c.MaxReversals >= c.Window:
		return fmt.Errorf("policy: watchdog reversal threshold %d outside [1, window)", c.MaxReversals)
	case c.PegQuanta < 1:
		return fmt.Errorf("policy: watchdog peg threshold %d quanta", c.PegQuanta)
	case c.PegUtil < 1 || c.PegUtil > FullUtil:
		return fmt.Errorf("policy: watchdog peg utilization %d outside (0, %d]", c.PegUtil, FullUtil)
	case c.MissStreak < 1:
		return fmt.Errorf("policy: watchdog miss streak %d", c.MissStreak)
	case c.SafeQuanta < 1 || c.MaxSafeQuanta < c.SafeQuanta:
		return fmt.Errorf("policy: watchdog safe hold %d/%d quanta", c.SafeQuanta, c.MaxSafeQuanta)
	}
	return nil
}

// WatchdogTrips counts safe-mode entries by cause.
type WatchdogTrips struct {
	Oscillation int // step flip-flop within the window
	Pegging     int // saturated at minimum step
	MissStreak  int // consecutive late deadlines
}

// Total is the number of times the watchdog entered safe mode.
func (t WatchdogTrips) Total() int { return t.Oscillation + t.Pegging + t.MissStreak }

// Watchdog wraps a speed policy with a supervisory state machine. While the
// inner policy behaves, decisions pass through untouched. When a detector
// trips — sustained oscillation, pegging at the minimum step under load, or
// a missed-deadline streak — the watchdog degrades to the safe setting
// (maximum clock step at 1.5 V, the configuration that can never cause a
// deadline miss the hardware could have avoided) and holds it for an
// escalating number of quanta before resetting and re-admitting the inner
// policy.
//
// Watchdog itself satisfies QuantumPolicy and the kernel's SpeedPolicy, so
// it installs anywhere the policy it wraps does.
type Watchdog struct {
	inner QuantumPolicy
	cfg   WatchdogConfig

	// Oscillation detector: ring of the last Window decision directions
	// (+1 scale-up, −1 scale-down, 0 hold).
	dirs   []int8
	next   int
	filled int

	pegRun  int // consecutive saturated quanta at MinStep
	missRun int // consecutive late deadlines

	safe     bool
	safeLeft int // quanta of safe hold remaining
	hold     int // current escalation level, quanta
	trips    WatchdogTrips
	quanta   int // total quanta observed, for TrippedAt diagnostics

	// Telemetry; all nil (no-op) unless Instrument was called. reg is kept
	// for emitting trip/readmit events to the run-event stream.
	reg     *telemetry.Registry
	telOsc  *telemetry.Counter
	telPeg  *telemetry.Counter
	telMiss *telemetry.Counter
	telSafe *telemetry.Gauge
}

// Instrument attaches trip counters, the safe-mode gauge, and the event
// stream, and forwards the registry to the supervised policy when it is
// instrumentable too. A nil registry detaches everything.
func (w *Watchdog) Instrument(reg *telemetry.Registry) {
	w.reg = reg
	w.telOsc = reg.Counter(telemetry.MWatchdogOscillation)
	w.telPeg = reg.Counter(telemetry.MWatchdogPegging)
	w.telMiss = reg.Counter(telemetry.MWatchdogMissStreak)
	w.telSafe = reg.Gauge(telemetry.MWatchdogSafeMode)
	if in, ok := w.inner.(interface{ Instrument(*telemetry.Registry) }); ok {
		in.Instrument(reg)
	}
}

// NewWatchdog wraps inner with the given supervisory config (zero fields
// take defaults).
func NewWatchdog(inner QuantumPolicy, cfg WatchdogConfig) (*Watchdog, error) {
	if inner == nil {
		return nil, fmt.Errorf("policy: watchdog needs a policy to supervise")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Watchdog{
		inner: inner,
		cfg:   cfg,
		dirs:  make([]int8, cfg.Window),
		hold:  cfg.SafeQuanta,
	}, nil
}

// MustWatchdog is NewWatchdog that panics on error.
func MustWatchdog(inner QuantumPolicy, cfg WatchdogConfig) *Watchdog {
	w, err := NewWatchdog(inner, cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// Inner returns the supervised policy.
func (w *Watchdog) Inner() QuantumPolicy { return w.inner }

// Config returns the fully-defaulted supervisory config in effect.
func (w *Watchdog) Config() WatchdogConfig { return w.cfg }

// InSafeMode reports whether the watchdog is currently holding the safe
// setting.
func (w *Watchdog) InSafeMode() bool { return w.safe }

// Trips returns the per-cause safe-mode entry counts so far.
func (w *Watchdog) Trips() WatchdogTrips { return w.trips }

// Name describes the wrapped policy in the experiment tables.
func (w *Watchdog) Name() string {
	if n, ok := w.inner.(interface{ Name() string }); ok {
		return fmt.Sprintf("WATCHDOG(%s)", n.Name())
	}
	return "WATCHDOG"
}

// NoteDeadline feeds the deadline detector: late reports whether the
// deadline just completed missed its slack. A streak of MissStreak lates
// trips safe mode immediately; any on-time completion clears the streak.
// Reports while already in safe mode are ignored — the misses they describe
// were incurred by work queued before degradation.
func (w *Watchdog) NoteDeadline(late bool) {
	if w.safe {
		w.missRun = 0
		return
	}
	if !late {
		w.missRun = 0
		return
	}
	w.missRun++
	if w.missRun >= w.cfg.MissStreak {
		w.trip(&w.trips.MissStreak, w.telMiss, "miss_streak")
	}
}

// OnQuantum implements QuantumPolicy (and the kernel's SpeedPolicy).
func (w *Watchdog) OnQuantum(now sim.Time, util int, cur cpu.Step, v cpu.Voltage) (cpu.Step, cpu.Voltage) {
	w.quanta++
	if w.safe {
		w.safeLeft--
		if w.safeLeft <= 0 {
			w.readmit()
		}
		return cpu.MaxStep, cpu.VHigh
	}

	s, nv := w.inner.OnQuantum(now, util, cur, v)

	// Oscillation: push this quantum's direction and count reversals over
	// the window.
	var dir int8
	switch {
	case s > cur:
		dir = 1
	case s < cur:
		dir = -1
	}
	w.dirs[w.next] = dir
	w.next = (w.next + 1) % len(w.dirs)
	if w.filled < len(w.dirs) {
		w.filled++
	}
	if w.reversals() >= w.cfg.MaxReversals {
		w.trip(&w.trips.Oscillation, w.telOsc, "oscillation")
		return cpu.MaxStep, cpu.VHigh
	}

	// Pegging: the policy holds the minimum step while work saturates.
	if s == cpu.MinStep && cur == cpu.MinStep && util >= w.cfg.PegUtil {
		w.pegRun++
		if w.pegRun >= w.cfg.PegQuanta {
			w.trip(&w.trips.Pegging, w.telPeg, "pegging")
			return cpu.MaxStep, cpu.VHigh
		}
	} else {
		w.pegRun = 0
	}

	return s, nv
}

// reversals counts sign flips among the nonzero directions in the window,
// oldest to newest.
func (w *Watchdog) reversals() int {
	count := 0
	var last int8
	start := (w.next - w.filled + len(w.dirs)) % len(w.dirs)
	for i := 0; i < w.filled; i++ {
		d := w.dirs[(start+i)%len(w.dirs)]
		if d == 0 {
			continue
		}
		if last != 0 && d != last {
			count++
		}
		last = d
	}
	return count
}

// trip enters safe mode, charges the given cause, and doubles the next hold
// (escalating hysteresis, capped).
func (w *Watchdog) trip(cause *int, tel *telemetry.Counter, kind string) {
	*cause++
	tel.Inc()
	w.telSafe.Set(1)
	w.reg.Emit("watchdog.trip",
		telemetry.F("kind", kind),
		telemetry.F("quantum", fmt.Sprint(w.quanta)),
		telemetry.F("hold_quanta", fmt.Sprint(w.hold)))
	w.safe = true
	w.safeLeft = w.hold
	if w.hold < w.cfg.MaxSafeQuanta {
		w.hold *= 2
		if w.hold > w.cfg.MaxSafeQuanta {
			w.hold = w.cfg.MaxSafeQuanta
		}
	}
	w.clearDetectors()
}

// readmit leaves safe mode and hands control back to a freshly-reset inner
// policy. Trip counts and the escalated hold survive; only another full
// Reset forgives history.
func (w *Watchdog) readmit() {
	w.safe = false
	w.telSafe.Set(0)
	w.reg.Emit("watchdog.readmit", telemetry.F("quantum", fmt.Sprint(w.quanta)))
	w.clearDetectors()
	if r, ok := w.inner.(interface{ Reset() }); ok {
		r.Reset()
	}
}

func (w *Watchdog) clearDetectors() {
	for i := range w.dirs {
		w.dirs[i] = 0
	}
	w.next, w.filled = 0, 0
	w.pegRun, w.missRun = 0, 0
}

// Reset restores the watchdog and its inner policy to the initial state,
// including trip counts and hold escalation.
func (w *Watchdog) Reset() {
	w.safe = false
	w.telSafe.Set(0)
	w.safeLeft = 0
	w.hold = w.cfg.SafeQuanta
	w.trips = WatchdogTrips{}
	w.quanta = 0
	w.clearDetectors()
	if r, ok := w.inner.(interface{ Reset() }); ok {
		r.Reset()
	}
}
