// Package power models the Itsy's instantaneous power draw and provides an
// exact piecewise-constant recorder that the simulated DAQ samples.
//
// The model is behavioural: its coefficients are calibrated against the
// component structure the paper reports rather than against SA-1100 data
// sheets. Three measured facts anchor it:
//
//  1. Whole-system average power running MPEG at 206.4 MHz/1.5 V is about
//     1.43 W (Table 2: ≈86 J over 60 s).
//  2. Dropping the core supply from 1.5 V to 1.23 V reduces the power
//     consumed by the processor by about 15% (Section 2.3), which showed up
//     as an ≈8% whole-system energy reduction at 132.7 MHz (Table 2) —
//     implying the processor rail accounts for roughly half the system
//     power and that only part of it scales with V².
//  3. Power varies non-linearly with clock frequency because memory timing
//     is fixed in wall-clock terms (Section 6); frequency dependence is
//     carried by the cycle model in package cpu, so here power is linear in
//     F for a given activity.
//
// The processor-rail active power is therefore modelled as
//
//	P_core(F, V) = (a·V² + b) · F
//
// with a and b solved from anchors (1) and (2): P(206.4 MHz, 1.5 V) = 1.0 W
// and P(206.4 MHz, 1.23 V) = 0.85 W.
package power

import (
	"fmt"
	"slices"

	"clocksched/internal/cpu"
)

// Mode describes what the processor is doing, which selects the core-rail
// power term.
type Mode int

const (
	// ModeNap: the idle process is running and the integrated power
	// manager has stalled the pipeline until the next interrupt. The
	// clock tree and DRAM interface stay powered.
	ModeNap Mode = iota
	// ModeActive: a process is executing instructions.
	ModeActive
	// ModeStall: the PLL is relocking after a clock change. No
	// instructions execute, but the core draws active-level power.
	ModeStall
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNap:
		return "nap"
	case ModeActive:
		return "active"
	case ModeStall:
		return "stall"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// State is everything the power model needs to produce instantaneous watts.
type State struct {
	Step cpu.Step
	V    cpu.Voltage
	Mode Mode
}

// Model converts a State into watts.
type Model struct {
	// CoeffA and CoeffB define the processor-rail active power
	// (a·V² + b)·F, in W/(V²·Hz) and W/Hz.
	CoeffA float64
	CoeffB float64
	// NapRatio is nap-mode core power as a fraction of active power at
	// the same step and voltage (clock tree and DRAM interface keep
	// running; the pipeline is gated).
	NapRatio float64
	// PeriphWatts is the constant draw of the 3.3 V peripheral rail:
	// display, touchscreen, audio codec, serial, and regulators.
	PeriphWatts float64
	// DVSVolts, when non-nil, models an ideal dynamic-voltage-scaling
	// processor: each clock step runs at its own minimal stable core
	// voltage (indexed by step) instead of the Itsy's two fixed levels.
	// This is the hardware the paper's Section 2.1 looks forward to
	// (StrongARM SA-2 class), used by the ideal-DVS projection
	// experiment; the Itsy itself is modelled with DVSVolts nil.
	DVSVolts []float64
}

// Equal reports whether m and o describe the same model, comparing
// DVSVolts element by element (a nil table is not an empty one).
func (m Model) Equal(o Model) bool {
	return m.CoeffA == o.CoeffA && m.CoeffB == o.CoeffB && m.NapRatio == o.NapRatio &&
		m.PeriphWatts == o.PeriphWatts && (m.DVSVolts == nil) == (o.DVSVolts == nil) &&
		slices.Equal(m.DVSVolts, o.DVSVolts)
}

// Reference anchors used by DefaultModel; exported so tests and docs can
// assert the calibration.
const (
	// AnchorCoreActiveMax is the modelled processor-rail power at
	// 206.4 MHz and 1.5 V.
	AnchorCoreActiveMax = 1.00 // watts
	// AnchorVoltageSaving is the fractional processor-power reduction
	// measured when dropping the core supply to 1.23 V (Section 2.3).
	AnchorVoltageSaving = 0.15
)

// DefaultModel returns the calibrated Itsy model with the full device
// profile (display, touchscreen and audio active), matching the workload
// measurement setup.
func DefaultModel() Model {
	fMax := float64(cpu.MaxStep.KHz()) * 1000 // Hz
	vHi := cpu.VHigh.Volts()
	vLo := cpu.VLow.Volts()
	// Solve (a·vHi² + b)·fMax = anchor and (a·vLo² + b)·fMax = (1-s)·anchor.
	aF := AnchorCoreActiveMax * AnchorVoltageSaving / (vHi*vHi - vLo*vLo)
	bF := AnchorCoreActiveMax - aF*vHi*vHi
	return Model{
		CoeffA:      aF / fMax,
		CoeffB:      bF / fMax,
		NapRatio:    0.12,
		PeriphWatts: 0.70,
	}
}

// IdleProfileModel returns the model with peripherals at the minimal idle
// profile (display on, audio path quiescent) used by the battery-lifetime
// observation in Section 2.1.
func IdleProfileModel() Model {
	m := DefaultModel()
	m.PeriphWatts = 0.08
	return m
}

// IdealDVSModel returns the calibrated model with an idealized
// voltage-scaling core: the supply tracks the minimum stable level for each
// step, falling linearly from 1.5 V at 206.4 MHz to 0.8 V at 59 MHz. Energy
// per cycle then shrinks quadratically at low clocks — the regime in which
// "voltage scheduling" (Pering's term) pays off.
func IdealDVSModel() Model {
	m := DefaultModel()
	volts := make([]float64, cpu.NumSteps)
	fMin := float64(cpu.MinStep.KHz())
	fMax := float64(cpu.MaxStep.KHz())
	for s := cpu.MinStep; s <= cpu.MaxStep; s++ {
		frac := (float64(s.KHz()) - fMin) / (fMax - fMin)
		volts[s] = 0.8 + frac*(1.5-0.8)
	}
	m.DVSVolts = volts
	return m
}

// volts resolves the effective core voltage for a state.
func (m Model) volts(s cpu.Step, v cpu.Voltage) float64 {
	if m.DVSVolts != nil && s.Valid() {
		return m.DVSVolts[s]
	}
	return v.Volts()
}

// CoreActive returns the processor-rail power when executing at step s with
// voltage v (ignored when the model is an ideal DVS core).
func (m Model) CoreActive(s cpu.Step, v cpu.Voltage) float64 {
	f := float64(s.KHz()) * 1000
	volts := m.volts(s, v)
	return (m.CoeffA*volts*volts + m.CoeffB) * f
}

// CoreNap returns the processor-rail power in nap mode.
func (m Model) CoreNap(s cpu.Step, v cpu.Voltage) float64 {
	return m.NapRatio * m.CoreActive(s, v)
}

// Power returns the instantaneous whole-system power for st, in watts.
func (m Model) Power(st State) float64 {
	var core float64
	switch st.Mode {
	case ModeNap:
		core = m.CoreNap(st.Step, st.V)
	default: // active and stall draw active-level power
		core = m.CoreActive(st.Step, st.V)
	}
	return core + m.PeriphWatts
}
