package daq

import (
	"errors"
	"fmt"

	"clocksched/internal/power"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
)

// Summary is the digest of one measurement window: everything the
// experiment harnesses report (energy, average, peak, sample count)
// without the materialized per-sample array a Capture carries.
type Summary struct {
	Config Config
	Start  sim.Time
	// Window is the requested capture span (end − start); the trailing
	// partial interval, if any, is weighted accordingly in EnergyJ.
	Window sim.Duration
	// Samples is how many readings the instrument took.
	Samples int
	// EnergyJ is Σ pᵢ·Δt with the partial-window overhang refunded —
	// the same integral Capture.Energy computes.
	EnergyJ float64
	// AvgPowerW is the mean of the readings, in watts.
	AvgPowerW float64
	// PeakW is the largest reading, in watts.
	PeakW float64
}

// Duration returns the time span the summary covers.
func (s Summary) Duration() sim.Duration {
	if s.Window > 0 {
		return s.Window
	}
	return sim.Duration(s.Samples) * s.Config.SampleInterval
}

// MeanCurrent returns the average supply current implied by the window, in
// amperes, as the instrument operator would compute it from the shunt.
func (s Summary) MeanCurrent() float64 {
	if s.Config.SupplyVolts <= 0 {
		return 0
	}
	return s.AvgPowerW / s.Config.SupplyVolts
}

// Integrate measures rec over [start, end) the way Sample does — one
// reading every SampleInterval, quantized to the ADC grid — but folds the
// readings into a Summary as it goes instead of materializing them.
//
// On a fault-free instrument it feeds the recorder's piecewise-constant
// segments to a Fold, the same accumulator a streaming run feeds online, so
// post-hoc and online measurement sum in the same order and agree bit for
// bit. The segment-ordered energy accumulation sums in a different order
// than the sample-ordered loop in Capture.Energy, so totals may differ from
// Sample at ULP scale — the clocksched-sim/4 measurement-path bump.
//
// With sample faults enabled (drops or glitches) every reading needs its
// own RNG draw, so Integrate falls back to a per-sample walk that makes
// draws in exactly the order Sample does, keeping fault schedules
// bit-identical between the two paths.
func Integrate(rec *power.Recorder, start, end sim.Time, cfg Config) (Summary, error) {
	n, err := cfg.readings(start, end)
	if err != nil {
		return Summary{}, err
	}
	if end > rec.End() {
		return Summary{}, fmt.Errorf("daq: capture window ends at %v but timeline ends at %v",
			end, rec.End())
	}
	points, err := rec.Points()
	if err != nil {
		return Summary{}, err
	}
	if !cfg.SampleFaults() {
		f := &Fold{cfg: cfg, start: start, end: end, n: n}
		for i, p := range points {
			segEnd := end
			if i+1 < len(points) {
				segEnd = points[i+1].At
			}
			f.Add(p.At, segEnd, p.Watts)
		}
		return f.Summary()
	}

	// Per-sample fallback: identical draw order to Sample.
	interval := cfg.SampleInterval
	tel := cfg.Telemetry
	telDropped := tel.Counter(telemetry.MDAQSamplesDropped)
	telGlitched := tel.Counter(telemetry.MDAQSamplesGlitched)
	var total, psum, peak, held float64
	seg := 0
	for i := int64(0); i < n; i++ {
		t := start + sim.Time(i)*interval
		for seg+1 < len(points) && points[seg+1].At <= t {
			seg++
		}
		if cfg.Faults.DropSample() {
			telDropped.Inc()
		} else {
			w := points[seg].Watts
			if g, ok := cfg.Faults.GlitchWatts(); ok {
				telGlitched.Inc()
				w += g
			}
			held = cfg.quantize(w)
		}
		total += held * interval.Seconds()
		// psum accumulates Σp: bit-identity with Capture.AveragePower
		// (which divides Σp by n) is promised on this path.
		psum += held
		if held > peak {
			peak = held
		}
	}
	window := end - start
	if covered := sim.Duration(n) * interval; window < covered {
		// The last reading overhangs the window; refund the overhang.
		total -= held * (covered - window).Seconds()
	}
	sum := Summary{Config: cfg, Start: start, Window: window, Samples: int(n),
		EnergyJ: total, PeakW: peak}
	if n > 0 {
		sum.AvgPowerW = psum / float64(n)
	}
	cfg.countCapture(n)
	return sum, nil
}

// SampleFaults reports whether the instrument injects per-sample faults
// (drops or glitches). Such a capture needs one RNG draw per reading, in
// reading order, so it cannot be folded segment by segment and must be
// measured post hoc by Integrate over a retained timeline.
func (c Config) SampleFaults() bool {
	if c.Faults == nil {
		return false
	}
	p := c.Faults.Plan()
	return p.SampleDropProb > 0 || p.SampleGlitchProb > 0
}

// readings validates the instrument and the window [start, end) and returns
// how many readings the capture takes. Ceiling division: a trailing partial
// interval gets its own reading rather than being silently dropped from the
// energy integral.
func (c Config) readings(start, end sim.Time) (int64, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	if start < 0 || end <= start {
		return 0, fmt.Errorf("daq: bad capture window [%v, %v)", start, end)
	}
	return int64((end - start + c.SampleInterval - 1) / c.SampleInterval), nil
}

// countCapture records one finished capture of n readings.
func (c Config) countCapture(n int64) {
	c.Telemetry.Counter(telemetry.MDAQCaptures).Inc()
	c.Telemetry.Counter(telemetry.MDAQSamples).Add(n)
}

// Fold measures a capture window online from a stream of power-timeline
// segments, the way a streaming power.Recorder emits them: each segment is
// quantized once and weighted by how many readings land inside it, so a
// run's measurement needs O(1) memory instead of a retained timeline.
// Segments must arrive in time order and together cover the window. A Fold
// cannot inject per-sample faults; see Config.SampleFaults.
type Fold struct {
	cfg        Config
	start, end sim.Time
	n          int64 // readings in the window
	reached    sim.Time
	// total is Σ quantized power × reading interval; last is the final
	// reading's power, whose overhang past end Summary refunds.
	total, peak, last float64
}

// NewFold starts measuring the window [start, end) with the instrument cfg.
func NewFold(start, end sim.Time, cfg Config) (*Fold, error) {
	f := new(Fold)
	if err := f.Reset(start, end, cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset starts f over on the window [start, end) with the instrument cfg,
// as NewFold would, forgetting every segment added before. On an error f
// is left as it was.
func (f *Fold) Reset(start, end sim.Time, cfg Config) error {
	n, err := cfg.readings(start, end)
	if err != nil {
		return err
	}
	if cfg.SampleFaults() {
		return errors.New("daq: a fold cannot inject per-sample faults; integrate a retained timeline")
	}
	*f = Fold{cfg: cfg, start: start, end: end, n: n}
	return nil
}

// Add folds in the segment [segStart, segEnd) during which the system drew
// w watts. Parts of it outside the window are ignored.
func (f *Fold) Add(segStart, segEnd sim.Time, w float64) {
	if segEnd > f.reached {
		f.reached = segEnd
	}
	if segEnd > f.end {
		segEnd = f.end
	}
	if segEnd <= f.start || segStart >= f.end {
		return
	}
	// Reading i falls in the segment whose span contains start + i·interval:
	// the first reading at or after segStart, the last before segEnd.
	interval := int64(f.cfg.SampleInterval)
	i0 := int64(0)
	if segStart > f.start {
		i0 = (int64(segStart-f.start) + interval - 1) / interval
	}
	i1 := (int64(segEnd-f.start) + interval - 1) / interval
	if i1 > f.n {
		i1 = f.n
	}
	if i1 <= i0 {
		return
	}
	q := f.cfg.quantize(w)
	f.total += q * float64(i1-i0) * f.cfg.SampleInterval.Seconds()
	if q > f.peak {
		f.peak = q
	}
	if i1 == f.n {
		f.last = q
	}
}

// Summary returns the capture's digest. It fails if the segments added so
// far do not reach the end of the window. Call it once: it also counts the
// capture in the instrument's telemetry.
func (f *Fold) Summary() (Summary, error) {
	if f.reached < f.end {
		return Summary{}, fmt.Errorf("daq: capture window ends at %v but timeline ends at %v",
			f.end, f.reached)
	}
	window := f.end - f.start
	covered := sim.Duration(f.n) * f.cfg.SampleInterval
	total := f.total
	if window < covered {
		// The last reading overhangs the window; refund the overhang.
		total -= f.last * (covered - window).Seconds()
	}
	sum := Summary{Config: f.cfg, Start: f.start, Window: window, Samples: int(f.n),
		EnergyJ: total, PeakW: f.peak}
	if f.n > 0 {
		// Mean of the readings: each reading contributed interval·p to the
		// pre-refund total, so dividing by the full covered span recovers
		// Σp/n up to summation order.
		sum.AvgPowerW = (total + f.last*(covered-window).Seconds()) / covered.Seconds()
	}
	f.cfg.countCapture(f.n)
	return sum, nil
}

// Summarize folds an already-materialized capture into the same digest
// Integrate produces, for callers that need both the raw samples and the
// summary quantities.
func Summarize(c Capture) Summary {
	return Summary{
		Config:    c.Config,
		Start:     c.Start,
		Window:    c.Window,
		Samples:   len(c.Samples),
		EnergyJ:   c.Energy(),
		AvgPowerW: c.AveragePower(),
		PeakW:     c.PeakPower(),
	}
}
