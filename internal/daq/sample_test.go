package daq

import (
	"fmt"
	"sort"

	"clocksched/internal/power"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
)

// Capture is one recorded measurement window.
type Capture struct {
	Config Config
	Start  sim.Time
	// Window is the requested capture span (end − start). When it is not a
	// whole number of sample intervals the final reading stands for a
	// shortened interval; Duration and Energy account for that. A zero
	// Window (captures built before the field existed, or literals in
	// tests) means exactly len(Samples) whole intervals.
	Window  sim.Duration
	Samples []float64 // quantized power readings, watts
}

// powerAt returns the power a retained timeline's points give at t: that
// of the last point at or before t.
func powerAt(points []power.TimePoint, t sim.Time) float64 {
	i := sort.Search(len(points), func(i int) bool { return points[i].At > t })
	return points[i-1].Watts
}

// Sample records power readings from rec over [start, end), beginning at the
// trigger instant start, one reading every SampleInterval. A window that is
// not a whole number of sample intervals is still covered in full: the
// instrument takes one extra reading at the start of the trailing partial
// interval, and Energy weights it by the partial interval's length.
//
// Sample is the reference instrument the Fold is checked against: it looks
// up and converts every reading by itself, sharing only quantize and the
// fault injector's draws with the Fold.
func Sample(rec *power.Recorder, start, end sim.Time, cfg Config) (Capture, error) {
	if err := cfg.validate(); err != nil {
		return Capture{}, err
	}
	if start < 0 || end <= start {
		return Capture{}, fmt.Errorf("daq: bad capture window [%v, %v)", start, end)
	}
	if end > rec.End() {
		return Capture{}, fmt.Errorf("daq: capture window ends at %v but timeline ends at %v",
			end, rec.End())
	}
	points, err := rec.Points()
	if err != nil {
		return Capture{}, err
	}
	window := end - start
	// Ceiling division: a trailing partial interval gets its own reading
	// rather than being silently dropped from the energy integral.
	n := int((window + cfg.SampleInterval - 1) / cfg.SampleInterval)
	cap := Capture{Config: cfg, Start: start, Window: window, Samples: make([]float64, 0, n)}
	tel := cfg.Telemetry
	telDropped := tel.Counter(telemetry.MDAQSamplesDropped)
	telGlitched := tel.Counter(telemetry.MDAQSamplesGlitched)
	held := 0.0 // last good quantized reading, for sample-and-hold drops
	for i := 0; i < n; i++ {
		t := start + sim.Time(i)*cfg.SampleInterval
		if cfg.Faults.DropSample() {
			// Conversion lost: the instrument repeats its previous
			// reading (zero before the first good conversion).
			telDropped.Inc()
			cap.Samples = append(cap.Samples, held)
			continue
		}
		w := powerAt(points, t)
		if g, ok := cfg.Faults.GlitchWatts(); ok {
			telGlitched.Inc()
			w += g // quantize clips the result to [0, full scale]
		}
		held = cfg.quantize(w)
		cap.Samples = append(cap.Samples, held)
	}
	tel.Counter(telemetry.MDAQCaptures).Inc()
	tel.Counter(telemetry.MDAQSamples).Add(int64(len(cap.Samples)))
	return cap, nil
}

// Duration returns the time span the capture covers.
func (c Capture) Duration() sim.Duration {
	if c.Window > 0 {
		return c.Window
	}
	return sim.Duration(len(c.Samples)) * c.Config.SampleInterval
}

// Energy computes total energy exactly as the paper does: each reading
// stands for the average power over the following sample interval. When the
// capture window ends inside the final interval, that reading is weighted by
// the partial interval it actually covers.
func (c Capture) Energy() float64 {
	dt := c.Config.SampleInterval.Seconds()
	sum := 0.0
	for _, p := range c.Samples {
		sum += p * dt
	}
	if covered := sim.Duration(len(c.Samples)) * c.Config.SampleInterval; c.Window > 0 && c.Window < covered {
		// The last reading overhangs the window; refund the overhang.
		sum -= c.Samples[len(c.Samples)-1] * (covered - c.Window).Seconds()
	}
	return sum
}

// AveragePower returns the mean of the captured readings, in watts.
func (c Capture) AveragePower() float64 {
	if len(c.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range c.Samples {
		sum += p
	}
	return sum / float64(len(c.Samples))
}

// PeakPower returns the largest captured reading, in watts.
func (c Capture) PeakPower() float64 {
	peak := 0.0
	for _, p := range c.Samples {
		if p > peak {
			peak = p
		}
	}
	return peak
}

// MeanCurrent returns the average supply current implied by the capture, in
// amperes, as the instrument operator would compute it from the shunt.
func (c Capture) MeanCurrent() float64 {
	if c.Config.SupplyVolts <= 0 {
		return 0
	}
	return c.AveragePower() / c.Config.SupplyVolts
}

// summary is the capture's digest, for comparing Sample with a Fold.
func (c Capture) summary() Summary {
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
