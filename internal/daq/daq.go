// Package daq simulates the data-acquisition setup of Section 4.1: an
// external instrument samples the Itsy's supply voltage and the voltage drop
// across a 0.02 Ω precision shunt resistor 5000 times per second, quantizes
// each reading to 16 bits, and begins recording when the device under test
// toggles a GPIO pin.
//
// Every energy number an experiment reports flows through one instrument,
// Fold, so results carry the same sampling and quantization structure as
// the paper's: E = Σ pᵢ · 0.0002 J, where pᵢ are the captured power readings.
package daq

import (
	"errors"
	"fmt"
	"math"

	"clocksched/internal/fault"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
)

// Config describes the instrument.
type Config struct {
	// SampleInterval is the time between successive readings. The paper's
	// DAQ read 5000 times per second: 200 µs.
	SampleInterval sim.Duration
	// Bits is the ADC resolution.
	Bits int
	// FullScaleWatts is the power corresponding to a full-scale ADC
	// reading; readings clip above it.
	FullScaleWatts float64
	// SupplyVolts is the external supply level, 3.1 V in the paper's
	// setup. It is recorded for current computations.
	SupplyVolts float64
	// ShuntOhms is the sense-resistor value, 0.02 Ω in the paper.
	ShuntOhms float64
	// Faults optionally injects acquisition-side failures: dropped
	// conversions (the instrument holds its previous reading, as a real
	// sample-and-hold front end would) and additive glitches on the shunt
	// voltage. Nil means a perfect instrument.
	Faults *fault.Injector
	// Telemetry, when non-nil, receives capture counts and per-sample
	// drop/glitch statistics. Nil disables instrumentation.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns the paper's instrument settings.
func DefaultConfig() Config {
	return Config{
		SampleInterval: 200 * sim.Microsecond,
		Bits:           16,
		FullScaleWatts: 8.0,
		SupplyVolts:    3.1,
		ShuntOhms:      0.02,
	}
}

func (c Config) validate() error {
	if c.SampleInterval <= 0 {
		return errors.New("daq: non-positive sample interval")
	}
	if c.Bits < 1 || c.Bits > 32 {
		return fmt.Errorf("daq: unreasonable ADC resolution %d bits", c.Bits)
	}
	if c.FullScaleWatts <= 0 {
		return errors.New("daq: non-positive full scale")
	}
	return nil
}

// quantize maps w onto the ADC's code grid and back, clipping at full scale.
func (c Config) quantize(w float64) float64 {
	if w <= 0 {
		return 0
	}
	if w >= c.FullScaleWatts {
		return c.FullScaleWatts
	}
	codes := float64(int64(1)<<uint(c.Bits) - 1)
	lsb := c.FullScaleWatts / codes
	return math.Round(w/lsb) * lsb
}
