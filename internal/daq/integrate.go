package daq

import (
	"fmt"

	"clocksched/internal/power"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
)

// Summary is the digest of one measurement window: everything the
// experiment harnesses report (energy, average, peak, sample count),
// without the readings themselves.
type Summary struct {
	Config Config
	Start  sim.Time
	// Window is the requested capture span (end − start); the trailing
	// partial interval, if any, is weighted accordingly in EnergyJ.
	Window sim.Duration
	// Samples is how many readings the instrument took.
	Samples int
	// EnergyJ is Σ pᵢ·Δt with the partial-window overhang refunded.
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

// Integrate measures rec's retained timeline over [start, end) by feeding
// its segments to a Fold, the instrument a streaming run feeds online, so
// post-hoc and online measurement are one computation and agree bit for bit.
func Integrate(rec *power.Recorder, start, end sim.Time, cfg Config) (Summary, error) {
	var f Fold
	if err := f.Reset(start, end, cfg); err != nil {
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
	for i, p := range points {
		segEnd := end
		if i+1 < len(points) {
			segEnd = points[i+1].At
		}
		f.Add(p.At, segEnd, p.Watts)
	}
	return f.Summary()
}

// sampleFaults reports whether the instrument injects per-sample faults
// (drops or glitches), each of which needs one RNG draw per reading.
func (c Config) sampleFaults() bool {
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

// Fold is the DAQ: it measures a capture window from a stream of
// power-timeline segments, the way a streaming power.Recorder emits them.
// Segments must arrive in time order and together cover the window.
//
// On a perfect instrument each segment is quantized once and weighted by
// how many readings land inside it, so a run's measurement needs O(1)
// memory. The segment-ordered sum adds the same addends as a
// reading-by-reading walk in a different order, so totals may differ
// from one at ULP scale — the clocksched-sim/4 measurement-path bump.
//
// An instrument that injects sample faults (drops or glitches) needs one
// RNG draw per reading, in reading order. Add then only notes each
// segment's first reading and raw power, and Summary walks the readings.
// The draws happen in Summary, after the run that fed the fold, so they
// never interleave with the draws a run makes from the same injector.
type Fold struct {
	cfg        Config
	faulty     bool // cfg injects sample faults: Summary walks levels
	start, end sim.Time
	n          int64 // readings in the window
	reached    sim.Time
	// total is Σ quantized power × reading interval; last is the final
	// reading's power, whose overhang past end Summary refunds.
	total, peak, last float64
	// levels holds, on a faulty instrument, every segment that carries a
	// reading. It keeps its capacity across Reset and Clear.
	levels []level
}

// level is one segment of the timeline as the per-reading walk sees it:
// the index of its first reading and the raw power drawn, before any
// glitch is added or the ADC clips and quantizes.
type level struct {
	first int64
	watts float64
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
	*f = Fold{cfg: cfg, faulty: cfg.sampleFaults(), start: start, end: end, n: n, levels: f.levels[:0]}
	return nil
}

// Clear forgets f's window, instrument and segments, keeping only the
// capacity of its segment buffer, so a pooled fold references nothing of
// its last capture. Reset f before adding to it again.
func (f *Fold) Clear() {
	*f = Fold{levels: f.levels[:0]}
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
	if f.faulty {
		f.levels = append(f.levels, level{first: i0, watts: w})
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
// far do not reach the end of the window. Call it once: it counts the
// capture in the instrument's telemetry and, on a faulty instrument, draws
// every reading's faults.
func (f *Fold) Summary() (Summary, error) {
	if f.reached < f.end {
		return Summary{}, fmt.Errorf("daq: capture window ends at %v but timeline ends at %v",
			f.end, f.reached)
	}
	var psum float64 // Σp over the readings, on a faulty instrument
	if f.faulty {
		psum = f.walk()
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
		if f.faulty {
			sum.AvgPowerW = psum / float64(f.n)
		} else {
			// Mean of the readings: each reading contributed interval·p to
			// the pre-refund total, so dividing by the full covered span
			// recovers Σp/n up to summation order.
			sum.AvgPowerW = (total + f.last*(covered-window).Seconds()) / covered.Seconds()
		}
	}
	f.cfg.countCapture(f.n)
	return sum, nil
}

// walk takes the faulty instrument's readings one by one, drawing each
// one's drop and glitch in reading order. A dropped conversion holds the
// previous reading (zero before the first good one), as a sample-and-hold
// front end would; a glitch adds to the raw power before the ADC clips and
// quantizes it. walk leaves the pre-refund total, the peak and the final
// reading in f, as Add does on a perfect instrument, and returns Σp.
func (f *Fold) walk() (psum float64) {
	interval := f.cfg.SampleInterval
	tel := f.cfg.Telemetry
	telDropped := tel.Counter(telemetry.MDAQSamplesDropped)
	telGlitched := tel.Counter(telemetry.MDAQSamplesGlitched)
	var total, peak, held float64
	seg := 0
	for i := int64(0); i < f.n; i++ {
		for seg+1 < len(f.levels) && f.levels[seg+1].first <= i {
			seg++
		}
		if f.cfg.Faults.DropSample() {
			telDropped.Inc()
		} else {
			w := f.levels[seg].watts
			if g, ok := f.cfg.Faults.GlitchWatts(); ok {
				telGlitched.Inc()
				w += g
			}
			held = f.cfg.quantize(w)
		}
		total += held * interval.Seconds()
		psum += held
		if held > peak {
			peak = held
		}
	}
	f.total, f.peak, f.last = total, peak, held
	return psum
}
