package clocksched

// The sweep wire formats: a JSON job specification (SweepSpec) that lets a
// sweep cross a process boundary — a client submits the spec, the sweep
// daemon reconstructs and runs it — and a canonical binary envelope for a
// completed SweepResult (sweepenvelope.go). Both carry sim.Version, so a
// spec or result produced against one behavioural revision of the
// simulator can never be silently mixed with another: the daemon rejects
// mismatched specs, and cached or journaled results are already keyed on
// the version.

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"clocksched/internal/sim"
)

// SimVersion reports the behavioural revision of the simulation module
// (e.g. "clocksched-sim/4"). Every sweep cache key, journal commit, result
// envelope, and job spec is bound to it; two processes interoperate only
// when their versions match exactly.
func SimVersion() string { return sim.Version }

// ErrVersionMismatch marks a SweepSpec whose embedded simulation version
// does not exactly match this process's SimVersion. Callers holding such a
// spec must not run it here: the measurement path changed between the two
// revisions, so its results would be incomparable with (and could poison
// caches shared with) the version that authored the spec.
var ErrVersionMismatch = errors.New("clocksched: sweep spec simulation version mismatch")

// Duration is the JSON wire form of a time.Duration: it encodes as a Go
// duration string ("60s", "33ms") and decodes from either that form or an
// integer nanosecond count, so hand-written job specs stay readable while
// machine-generated ones round-trip exactly.
type Duration time.Duration

// MarshalJSON renders the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "250ms"-style strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("clocksched: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// Std converts to the standard library representation.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// CellSpec is the serializable form of one cell's Config: everything that
// determines the measurement, nothing that belongs to the runtime (the
// live Telemetry registry does not travel).
type CellSpec struct {
	Workload      Workload        `json:"workload,omitempty"`
	Policy        Policy          `json:"policy"`
	Seed          uint64          `json:"seed,omitempty"`
	Duration      Duration        `json:"duration,omitempty"`
	DeadlineSlack Duration        `json:"deadline_slack,omitempty"`
	CaptureTrace  bool            `json:"capture_trace,omitempty"`
	Faults        *FaultPlan      `json:"faults,omitempty"`
	Watchdog      *WatchdogConfig `json:"watchdog,omitempty"`
}

// newCellSpec projects a Config onto its wire form.
func newCellSpec(c Config) CellSpec {
	return CellSpec{
		Workload:      c.Workload,
		Policy:        c.Policy,
		Seed:          c.Seed,
		Duration:      Duration(c.Duration),
		DeadlineSlack: Duration(c.DeadlineSlack),
		CaptureTrace:  c.CaptureTrace,
		Faults:        c.Faults,
		Watchdog:      c.Watchdog,
	}
}

// config reverses newCellSpec.
func (cs CellSpec) config() Config {
	return Config{
		Workload:      cs.Workload,
		Policy:        cs.Policy,
		Seed:          cs.Seed,
		Duration:      cs.Duration.Std(),
		DeadlineSlack: cs.DeadlineSlack.Std(),
		CaptureTrace:  cs.CaptureTrace,
		Faults:        cs.Faults,
		Watchdog:      cs.Watchdog,
	}
}

// Matches reports whether c is the cell cs runs as: cs with its defaults
// resolved, which is the Config a SweepResult cell carries. Every field
// but Telemetry counts; policies compare as equal renderings would,
// without rendering either, and fault plans and watchdogs by value.
func (cs CellSpec) Matches(c Config) bool {
	want := cs.config().withDefaults()
	return c.Workload == want.Workload && c.Policy.renderSame(want.Policy) &&
		c.Seed == want.Seed && c.Duration == want.Duration &&
		c.DeadlineSlack == want.DeadlineSlack && c.CaptureTrace == want.CaptureTrace &&
		equalPtr(c.Faults, want.Faults) && equalPtr(c.Watchdog, want.Watchdog)
}

// equalPtr reports whether a and b are both nil or point at equal values.
func equalPtr[T comparable](a, b *T) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// SweepSpec is the declarative, JSON-serializable form of a sweep: the
// grid axes (or explicit cells), the shared cell settings, and the
// failure-handling knobs, stamped with the simulation version that
// authored it. It deliberately excludes execution resources — workers,
// caches, journals, progress callbacks, telemetry — which belong to
// whichever process runs the spec.
//
// Build one with NewSweepSpec, ship it as JSON, and turn it back into a
// runnable SweepConfig with Config, which enforces the version stamp.
type SweepSpec struct {
	// SimVersion must equal the running process's SimVersion() for Config
	// to accept the spec; NewSweepSpec stamps it automatically.
	SimVersion string `json:"sim_version"`

	// Workloads, Policies, and Seeds are the grid axes, with the same
	// semantics as SweepConfig.
	Workloads []Workload `json:"workloads,omitempty"`
	Policies  []Policy   `json:"policies,omitempty"`
	Seeds     []uint64   `json:"seeds,omitempty"`

	// Duration, DeadlineSlack, CaptureTrace, Faults, and Watchdog apply
	// to every axis-built cell.
	Duration      Duration        `json:"duration,omitempty"`
	DeadlineSlack Duration        `json:"deadline_slack,omitempty"`
	CaptureTrace  bool            `json:"capture_trace,omitempty"`
	Faults        *FaultPlan      `json:"faults,omitempty"`
	Watchdog      *WatchdogConfig `json:"watchdog,omitempty"`

	// Cells, when non-empty, is the explicit grid; the axes above are
	// ignored.
	Cells []CellSpec `json:"cells,omitempty"`

	// Range, when set, narrows an axis-built grid to its cells [Lo, Hi)
	// in grid order: the spec then runs as an explicit grid of those
	// cells. Shard sets it. A range outside the grid, an empty one, or
	// one on an explicit-cells spec fails Config.
	Range *CellRange `json:"range,omitempty"`

	// FailFast, CellTimeout, Retries, and RetryBase mirror SweepConfig.
	FailFast    bool     `json:"fail_fast,omitempty"`
	CellTimeout Duration `json:"cell_timeout,omitempty"`
	Retries     int      `json:"retries,omitempty"`
	RetryBase   Duration `json:"retry_base,omitempty"`
}

// NewSweepSpec captures the declarative subset of a SweepConfig and stamps
// it with the current simulation version. Runtime-only fields (Workers,
// Cache, Progress, Telemetry, Journal, Resume) are dropped: the spec
// describes what to measure, not how the runner schedules it.
func NewSweepSpec(cfg SweepConfig) SweepSpec {
	s := SweepSpec{
		SimVersion:    sim.Version,
		Workloads:     append([]Workload(nil), cfg.Workloads...),
		Policies:      append([]Policy(nil), cfg.Policies...),
		Seeds:         append([]uint64(nil), cfg.Seeds...),
		Duration:      Duration(cfg.Duration),
		DeadlineSlack: Duration(cfg.DeadlineSlack),
		CaptureTrace:  cfg.CaptureTrace,
		Faults:        cfg.Faults,
		Watchdog:      cfg.Watchdog,
		FailFast:      cfg.FailFast,
		CellTimeout:   Duration(cfg.CellTimeout),
		Retries:       cfg.Retries,
		RetryBase:     Duration(cfg.RetryBase),
	}
	if len(cfg.Cells) > 0 {
		s.Cells = make([]CellSpec, len(cfg.Cells))
		for i, c := range cfg.Cells {
			s.Cells[i] = newCellSpec(c)
		}
	}
	return s
}

// CellRange is a half-open run [Lo, Hi) of grid positions.
type CellRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Config converts the spec into a runnable SweepConfig after checking the
// version stamp: a spec authored under any other simulation revision —
// including one with no stamp at all — fails with ErrVersionMismatch, so
// results from different measurement paths can never mix. A spec whose
// Range does not fit its grid fails with an error that is not
// ErrVersionMismatch. The returned configuration still needs its runtime
// fields (Workers, Cache, Journal, …) filled in by the caller, and is
// validated by Sweep as usual.
func (s SweepSpec) Config() (SweepConfig, error) {
	if s.SimVersion != sim.Version {
		return SweepConfig{}, fmt.Errorf("%w: spec %q, this process %q",
			ErrVersionMismatch, s.SimVersion, sim.Version)
	}
	return s.config()
}

// config is Config without the version check: the spec's grid as a
// SweepConfig, which shape arithmetic and sharding expand through grid. A
// ranged spec becomes the explicit grid of its cells, built by index in
// O(Hi−Lo) without expanding the rest.
func (s SweepSpec) config() (SweepConfig, error) {
	cfg := SweepConfig{
		Duration:      s.Duration.Std(),
		DeadlineSlack: s.DeadlineSlack.Std(),
		CaptureTrace:  s.CaptureTrace,
		Faults:        s.Faults,
		Watchdog:      s.Watchdog,
		FailFast:      s.FailFast,
		CellTimeout:   s.CellTimeout.Std(),
		Retries:       s.Retries,
		RetryBase:     s.RetryBase.Std(),
	}
	if s.Range == nil {
		cfg.Workloads = append([]Workload(nil), s.Workloads...)
		cfg.Policies = append([]Policy(nil), s.Policies...)
		cfg.Seeds = append([]uint64(nil), s.Seeds...)
		if len(s.Cells) > 0 {
			cfg.Cells = make([]Config, len(s.Cells))
			for i, cs := range s.Cells {
				cfg.Cells[i] = cs.config()
			}
		}
		return cfg, nil
	}
	if err := s.checkRange(); err != nil {
		return SweepConfig{}, err
	}
	axes := cfg
	axes.Workloads, axes.Policies, axes.Seeds = s.Workloads, s.Policies, s.Seeds
	_, np, ns := axes.eachCell(nil)
	cfg.Cells = make([]Config, s.Range.Hi-s.Range.Lo)
	for i := range cfg.Cells {
		cfg.Cells[i] = axes.axisCell(s.Range.Lo+i, np, ns)
	}
	return cfg, nil
}

// axisCells is the axis grid's size, whatever Cells or Range say.
func (s SweepSpec) axisCells() int {
	return max(1, len(s.Workloads)) * max(1, len(s.Policies)) * max(1, len(s.Seeds))
}

// checkRange reports why the spec's Range does not fit its grid, naming
// the range and the grid size; nil when it fits or there is none.
func (s SweepSpec) checkRange() error {
	r := s.Range
	switch {
	case r == nil:
		return nil
	case len(s.Cells) > 0:
		return fmt.Errorf("clocksched: range [%d, %d) on an explicit grid of %d cells: ranges apply to axis grids only",
			r.Lo, r.Hi, len(s.Cells))
	case r.Lo < 0 || r.Hi > s.axisCells() || r.Lo >= r.Hi:
		return fmt.Errorf("clocksched: range [%d, %d) out of grid [0, %d)", r.Lo, r.Hi, s.axisCells())
	}
	return nil
}
