// Package fleet is the population-scale scenario engine: it instantiates
// N simulated device sessions — each a per-device-seeded workload drawn
// from a configurable mix, with its own arrival offset and think-time
// randomness — compiles the population × policy grid into ordinary sweep
// cells, and reduces the per-device results into population distributions
// (p50/p95/p99 energy, deadline-miss rate, watchdog-trip fraction) per
// policy. The compiled cells ride the existing sweep engine, cache,
// durability journal, and distributed fabric unchanged, so a fleet run
// inherits every determinism and crash-safety guarantee those layers
// already prove: the population summary is byte-identical across serial,
// parallel, resumed, and multi-peer execution.
//
// A schedulability pre-pass (Feasible, after the Nokia software-
// schedulability-estimation idea) prices each device×policy pairing
// against the SA-1100's clock-step ladder before anything runs: pairings
// whose estimated utilization cannot fit are skipped up front and
// reported as a structured "infeasible" bucket — never silently dropped —
// which at population scale saves simulating cells whose outcome
// (saturation and missed deadlines) is already known.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"clocksched"
	"clocksched/internal/sim"
)

// MaxDevices bounds a single spec. The ceiling is far above any practical
// local run (100k+ device populations are expected to fan out over the
// fabric); it exists so a corrupted or hostile spec cannot make Compile
// attempt a multi-gigabyte allocation.
const MaxDevices = 5_000_000

// SpecError is one structured validation failure of a fleet Spec: the
// offending field and what is wrong with it. Validate joins every
// SpecError it finds, so errors.As recovers the first and callers that
// need all of them can unwrap the join.
type SpecError struct {
	Field  string
	Detail string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("fleet: spec field %s: %s", e.Field, e.Detail)
}

func specErr(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Detail: fmt.Sprintf(format, args...)}
}

// Spec is the JSON wire form of one fleet scenario: how many devices, how
// their workloads are mixed, and which policies to sweep across the
// population. Everything that determines the measurement lives here;
// execution resources (workers, cache, journal, telemetry) belong to the
// clocksched.SweepConfig that Run executes the compiled cells under.
type Spec struct {
	// SimVersion, when non-empty, must match this process's simulation
	// version — the same guard SweepSpec carries, optional here so
	// hand-written scenario files don't need the stamp. NewSpec fills it.
	SimVersion string `json:"sim_version,omitempty"`

	// Devices is the population size.
	Devices int `json:"devices"`
	// Seed is the master seed: device i draws its workload class, session
	// seed, and arrival offset from an independent RNG stream derived
	// from (Seed, i), so device i's identity is invariant under changes
	// to the population size.
	Seed uint64 `json:"seed,omitempty"`
	// Mix weights the workload classes, keyed by wire name ("mpeg",
	// "web", "chess", "editor", "rect", "feedback"). Weights are relative
	// (they need not sum to 1); absent classes get zero weight. An empty
	// mix selects DefaultMix. Unknown keys are structured errors.
	Mix map[string]float64 `json:"mix,omitempty"`
	// Policies is the policy axis. Registry-built policies (NewPolicy)
	// serialize in their {"name", "params"} wire form and reconstruct
	// through the receiving daemon's registry, exactly as in a SweepSpec.
	Policies []clocksched.Policy `json:"policies,omitempty"`

	// Duration bounds each device session; zero runs every session to
	// its workload's natural length. Fleet runs almost always want a cap:
	// the population's statistical power comes from device count, not
	// session length.
	Duration clocksched.Duration `json:"duration,omitempty"`
	// ArrivalSpread staggers session starts: device i arrives a
	// seeded-uniform offset in [0, ArrivalSpread] into the observation
	// window and its session is shortened accordingly — late arrivals
	// observe less of the window, like real users joining mid-interval.
	// Requires Duration. Zero starts everyone together.
	ArrivalSpread clocksched.Duration `json:"arrival_spread,omitempty"`
	// DeadlineSlack is the per-cell perceptual miss slack; zero selects
	// the public API's 33 ms default.
	DeadlineSlack clocksched.Duration `json:"deadline_slack,omitempty"`
	// MaxUtil is the schedulability bar for the feasibility pre-pass:
	// a device×policy pairing whose estimated utilization at the policy's
	// best step exceeds it is skipped. Zero selects DefaultMaxUtil.
	MaxUtil float64 `json:"max_util,omitempty"`
	// Watchdog, when non-nil, wraps every non-constant policy's cells in
	// the supervisory governor (constant policies cannot carry one).
	Watchdog *clocksched.WatchdogConfig `json:"watchdog,omitempty"`
}

// DefaultMix is the population mix used when Spec.Mix is empty: mostly
// interactive browsing, a healthy share of media playback, and smaller
// shares of the compute-bound, bursty, and closed-loop classes.
func DefaultMix() map[string]float64 {
	return map[string]float64{
		"mpeg":     0.25,
		"web":      0.30,
		"chess":    0.15,
		"editor":   0.15,
		"feedback": 0.15,
	}
}

// NewSpec stamps a spec with the current simulation version.
func NewSpec(devices int, seed uint64) Spec {
	return Spec{SimVersion: clocksched.SimVersion(), Devices: devices, Seed: seed}
}

// DecodeSpec parses the JSON wire form strictly — unknown fields are
// errors, like the sweep service's job decoder — and validates the
// result, so a malformed spec is rejected with structured errors before
// anything is generated.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("fleet: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks the spec eagerly and reports every problem at once via
// errors.Join; each individual problem is a *SpecError.
func (s Spec) Validate() error {
	var errs []error
	if s.SimVersion != "" && s.SimVersion != clocksched.SimVersion() {
		errs = append(errs, specErr("sim_version", "spec %q, this process %q",
			s.SimVersion, clocksched.SimVersion()))
	}
	if s.Devices <= 0 {
		errs = append(errs, specErr("devices", "population must be positive, got %d", s.Devices))
	}
	if s.Devices > MaxDevices {
		errs = append(errs, specErr("devices", "population %d exceeds the %d ceiling", s.Devices, MaxDevices))
	}
	known := make(map[string]bool, len(clocksched.Workloads()))
	for _, w := range clocksched.Workloads() {
		known[string(w)] = true
	}
	positive := false
	for k, v := range s.Mix {
		if !known[k] {
			errs = append(errs, specErr("mix", "unknown workload class %q", k))
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			errs = append(errs, specErr("mix", "class %q weight %v is not finite", k, v))
			continue
		}
		if v < 0 {
			errs = append(errs, specErr("mix", "class %q weight %v is negative", k, v))
			continue
		}
		if v > 0 {
			positive = true
		}
	}
	if len(s.Mix) > 0 && !positive {
		errs = append(errs, specErr("mix", "no class has positive weight"))
	}
	if len(s.Policies) == 0 {
		errs = append(errs, specErr("policies", "at least one policy is required"))
	}
	for i, p := range s.Policies {
		if err := p.Validate(); err != nil {
			errs = append(errs, specErr("policies", "policy %d (%s): %v", i, p.Name(), err))
		}
	}
	if s.Duration < 0 {
		errs = append(errs, specErr("duration", "negative duration %v", s.Duration.Std()))
	}
	if s.ArrivalSpread < 0 {
		errs = append(errs, specErr("arrival_spread", "negative spread %v", s.ArrivalSpread.Std()))
	}
	if s.ArrivalSpread > 0 && s.Duration <= 0 {
		errs = append(errs, specErr("arrival_spread", "requires a bounded duration"))
	}
	if s.ArrivalSpread > 0 && s.ArrivalSpread >= s.Duration {
		errs = append(errs, specErr("arrival_spread", "spread %v must be shorter than the %v window",
			s.ArrivalSpread.Std(), s.Duration.Std()))
	}
	if s.DeadlineSlack < 0 {
		errs = append(errs, specErr("deadline_slack", "negative slack %v", s.DeadlineSlack.Std()))
	}
	if math.IsNaN(s.MaxUtil) || math.IsInf(s.MaxUtil, 0) || s.MaxUtil < 0 || s.MaxUtil > 1 {
		errs = append(errs, specErr("max_util", "bar %v outside [0, 1]", s.MaxUtil))
	}
	return errors.Join(errs...)
}

// maxUtil resolves the feasibility bar's zero-value default.
func (s Spec) maxUtil() float64 {
	if s.MaxUtil == 0 {
		return DefaultMaxUtil
	}
	return s.MaxUtil
}

// mix resolves the population mix and its deterministic class order:
// classes in Workloads() order, filtered to positive weight.
func (s Spec) mix() (classes []clocksched.Workload, weights []float64) {
	m := s.Mix
	if len(m) == 0 {
		m = DefaultMix()
	}
	for _, w := range clocksched.Workloads() {
		if v := m[string(w)]; v > 0 {
			classes = append(classes, w)
			weights = append(weights, v)
		}
	}
	return classes, weights
}

// Device is one generated population member.
type Device struct {
	// Index is the device's position in the population, 0-based.
	Index int
	// Workload is the class this user runs.
	Workload clocksched.Workload
	// Seed drives the session's workload jitter (trace think times, frame
	// cost jitter, …) — each device is a distinct user.
	Seed uint64
	// Arrival is the device's offset into the observation window; its
	// session covers the remainder of the window.
	Arrival clocksched.Duration
}

// SessionDuration is how much of the observation window the device's
// session covers; zero means the workload's natural length.
func (d Device) SessionDuration(window clocksched.Duration) clocksched.Duration {
	if window <= 0 {
		return 0
	}
	sess := window - d.Arrival
	// A session can never be shorter than one scheduling quantum.
	if min := clocksched.Duration(10 * time.Millisecond); sess < min {
		sess = min
	}
	return sess
}

// GenerateDevice materializes device i of the population. Each device
// draws from its own RNG stream derived from (Seed, i), so the device's
// class, seed, and arrival are a pure function of the spec's seed and the
// device index — independent of every other device and of the population
// size. Growing a fleet from 10k to 100k devices leaves the first 10k
// identical, which is what lets the cache and fabric reuse their cells.
func (s Spec) GenerateDevice(i int) Device {
	rng := sim.NewRNGStream(s.Seed, uint64(i)+1)
	classes, weights := s.mix()
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	d := Device{Index: i, Workload: classes[len(classes)-1]}
	for ci, w := range weights {
		if x < w {
			d.Workload = classes[ci]
			break
		}
		x -= w
	}
	// |1 keeps the session seed nonzero: seed 0 means "use the workload's
	// built-in default", which would alias distinct devices together.
	d.Seed = rng.Uint64() | 1
	if s.ArrivalSpread > 0 {
		d.Arrival = clocksched.Duration(rng.Int63n(int64(s.ArrivalSpread) + 1))
	}
	return d
}

// CellRef locates one compiled sweep cell in the population grid.
type CellRef struct {
	// Device and Policy index Plan.Devices and Spec.Policies.
	Device int
	Policy int
}

// Skip is one device×policy pairing the feasibility pre-pass removed: the
// structured "infeasible" record the reducer reports instead of a cell.
type Skip struct {
	// Device indexes Plan.Devices; Workload is its class.
	Device   int
	Workload clocksched.Workload
	// Policy indexes Spec.Policies; PolicyName is its display name.
	Policy     int
	PolicyName string
	// EstUtil is the estimated utilization at the policy's best step —
	// the number that failed the bar.
	EstUtil float64
	// MinFeasibleMHz is the slowest clock step that would clear the bar
	// for this workload, or 0 when even 206.4 MHz cannot.
	MinFeasibleMHz float64
}

// Plan is a compiled fleet: the generated population and the cells that
// survived the feasibility pre-pass, in deterministic device-major ×
// policy-minor order, plus the structured skip bucket.
type Plan struct {
	Spec    Spec
	Devices []Device
	// Cells are the runnable sweep cells; Refs is parallel, mapping each
	// cell back to its (device, policy) coordinates.
	Cells []clocksched.Config
	Refs  []CellRef
	// Skips is the infeasible bucket, in the same deterministic order the
	// pairings were considered.
	Skips []Skip
}

// Compile validates the spec, generates the population, runs the
// feasibility pre-pass over every device×policy pairing, and emits the
// surviving cells in deterministic order.
func (s Spec) Compile() (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		Spec:    s,
		Devices: make([]Device, s.Devices),
	}
	bar := s.maxUtil()
	for i := range p.Devices {
		p.Devices[i] = s.GenerateDevice(i)
	}
	// Size Cells and Refs once: a pairing's feasibility depends only on the
	// device's workload class and the policy, so count per class first.
	feasible := make(map[clocksched.Workload]int)
	cells := 0
	for _, d := range p.Devices {
		n, ok := feasible[d.Workload]
		if !ok {
			for _, pol := range s.Policies {
				if !(policyUtil(d.Workload, pol) > bar) {
					n++
				}
			}
			feasible[d.Workload] = n
		}
		cells += n
	}
	if cells > 0 {
		p.Cells = make([]clocksched.Config, 0, cells)
		p.Refs = make([]CellRef, 0, cells)
	}
	for i, d := range p.Devices {
		sess := d.SessionDuration(s.Duration)
		for pi, pol := range s.Policies {
			util := policyUtil(d.Workload, pol)
			if util > bar {
				p.Skips = append(p.Skips, Skip{
					Device:         i,
					Workload:       d.Workload,
					Policy:         pi,
					PolicyName:     pol.Name(),
					EstUtil:        util,
					MinFeasibleMHz: MinFeasibleMHz(d.Workload, bar),
				})
				continue
			}
			cell := clocksched.Config{
				Workload:      d.Workload,
				Policy:        pol,
				Seed:          d.Seed,
				Duration:      sess.Std(),
				DeadlineSlack: s.DeadlineSlack.Std(),
			}
			if s.Watchdog != nil && !pol.Constant {
				cell.Watchdog = s.Watchdog
			}
			p.Cells = append(p.Cells, cell)
			p.Refs = append(p.Refs, CellRef{Device: i, Policy: pi})
		}
	}
	return p, nil
}
