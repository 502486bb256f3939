package expt

import (
	"fmt"
	"strings"

	"clocksched/internal/battery"
	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/power"
	"clocksched/internal/sim"
)

// BatteryRow is the expected battery lifetime with the system idle at one
// clock step.
type BatteryRow struct {
	Step     cpu.Step
	IdleW    float64
	Lifetime sim.Duration
}

// BatteryResult reproduces the Section 2.1 observation: a pair of AAA
// alkaline cells powers the idle Itsy for about 2 hours at 206 MHz but
// about 18 hours at 59 MHz — a 9× lifetime change for a 3.5× clock change,
// driven by the battery's rate-capacity effect.
type BatteryResult struct {
	Rows []BatteryRow
	// Ratio is lifetime(59 MHz) / lifetime(206.4 MHz).
	Ratio float64
	// Model is the fitted Peukert model.
	Model battery.Peukert
}

// BatteryLifetime runs the experiment: the idle power profile at each step
// feeds a Peukert model fitted through the paper's two observed points.
func BatteryLifetime() (BatteryResult, error) {
	m := power.IdleProfileModel()
	idleW := func(s cpu.Step) float64 {
		return m.Power(power.State{Step: s, V: cpu.VHigh, Mode: power.ModeNap})
	}
	fit, err := battery.FitPeukert(3.0,
		idleW(cpu.MaxStep), 2*3600*sim.Second,
		idleW(cpu.MinStep), 18*3600*sim.Second)
	if err != nil {
		return BatteryResult{}, err
	}
	res := BatteryResult{Model: fit}
	for s := cpu.MinStep; s <= cpu.MaxStep; s++ {
		w := idleW(s)
		life, err := fit.Lifetime(w)
		if err != nil {
			return BatteryResult{}, err
		}
		res.Rows = append(res.Rows, BatteryRow{Step: s, IdleW: w, Lifetime: life})
	}
	res.Ratio = res.Rows[0].Lifetime.Seconds() / res.Rows[len(res.Rows)-1].Lifetime.Seconds()
	return res, nil
}

// Render prints the lifetime table.
func (r BatteryResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Battery lifetime, idle system, 2×AAA alkaline (Peukert k=%.2f)\n", r.Model.Exponent)
	b.WriteString("Clock      Idle power  Lifetime\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %.3f W     %.1f h\n", row.Step, row.IdleW, row.Lifetime.Seconds()/3600)
	}
	fmt.Fprintf(&b, "lifetime(59MHz)/lifetime(206.4MHz) = %.1f× for a %.1f× clock change\n",
		r.Ratio, cpu.MaxStep.MHz()/cpu.MinStep.MHz())
	return b.String()
}

// TransitionResult reproduces the Section 5.4 microbenchmarks: the
// tight-loop clock-switching measurement and the voltage settle times.
type TransitionResult struct {
	// ClockChangeStall is the measured per-change execution stall.
	ClockChangeStall sim.Duration
	// StallCyclesAtMin and StallCyclesAtMax are the stall expressed in
	// clock periods at 59 and 206.4 MHz ("between 11,200 clock periods
	// ... and 40,000").
	StallCyclesAtMin int64
	StallCyclesAtMax int64
	// VoltageDown and VoltageUp are the supply settle times.
	VoltageDown sim.Duration
	VoltageUp   sim.Duration
	// OverheadFraction is stall time as a fraction of a quantum when
	// changing every quantum.
	OverheadFraction float64
}

// togglePolicy alternates between two steps every quantum, the simulated
// version of the paper's GPIO-instrumented switching loop.
type togglePolicy struct {
	a, b cpu.Step
	flip bool
}

// OnQuantum implements kernel.SpeedPolicy.
func (t *togglePolicy) OnQuantum(_ sim.Time, _ int, _ cpu.Step, v cpu.Voltage) (cpu.Step, cpu.Voltage) {
	t.flip = !t.flip
	if t.flip {
		return t.a, v
	}
	return t.b, v
}

// TransitionCost measures clock and voltage transition costs by running a
// policy that switches every quantum and dividing the kernel's accumulated
// stall time by the number of changes.
func TransitionCost() (TransitionResult, error) {
	eng := &sim.Engine{}
	cfg := kernel.DefaultConfig()
	cfg.Policy = &togglePolicy{a: cpu.MinStep, b: cpu.MaxStep}
	k, err := kernel.New(eng, cfg)
	if err != nil {
		return TransitionResult{}, err
	}
	// The extra millisecond lets the final change's stall complete inside
	// the run so the per-change average divides exactly.
	if err := k.Run(10*sim.Second + sim.Millisecond); err != nil {
		return TransitionResult{}, err
	}
	if k.SpeedChanges() == 0 {
		return TransitionResult{}, fmt.Errorf("expt: toggle policy made no changes")
	}
	perChange := k.StallTime() / sim.Duration(k.SpeedChanges())
	return TransitionResult{
		ClockChangeStall: perChange,
		StallCyclesAtMin: int64(perChange) * cpu.MinStep.KHz() / 1000,
		StallCyclesAtMax: int64(perChange) * cpu.MaxStep.KHz() / 1000,
		VoltageDown:      cpu.VoltageSettleDown,
		VoltageUp:        cpu.VoltageSettleUp,
		OverheadFraction: float64(perChange) / float64(sim.Quantum),
	}, nil
}

// Render prints the measurements in the paper's terms.
func (r TransitionResult) Render() string {
	var b strings.Builder
	b.WriteString("Section 5.4: clock and voltage transition costs\n")
	fmt.Fprintf(&b, "clock change stall:   %v (%d periods @59MHz, %d periods @206.4MHz)\n",
		r.ClockChangeStall, r.StallCyclesAtMin, r.StallCyclesAtMax)
	fmt.Fprintf(&b, "voltage settle down:  %v (1.5V → 1.23V)\n", r.VoltageDown)
	fmt.Fprintf(&b, "voltage settle up:    %v (effectively instantaneous)\n", r.VoltageUp)
	fmt.Fprintf(&b, "per-quantum overhead: %.1f%% when changing every scheduling decision\n",
		r.OverheadFraction*100)
	return b.String()
}

// OverheadResult reproduces the Section 4.3 measurement of the forced
// per-quantum rescheduling: about 6 µs for each 10 ms interval, or 0.06%.
type OverheadResult struct {
	PerQuantum sim.Duration
	Fraction   float64
}

// SchedulerOverhead measures the rescheduling overhead by differencing the
// utilization an idle system reports with and without the forced scheduler
// invocation cost.
func SchedulerOverhead() (OverheadResult, error) {
	run := func(overhead sim.Duration) (int, error) {
		eng := &sim.Engine{}
		cfg := kernel.DefaultConfig()
		cfg.SchedOverhead = overhead
		k, err := kernel.New(eng, cfg)
		if err != nil {
			return 0, err
		}
		if err := k.Run(sim.Second); err != nil {
			return 0, err
		}
		return k.UtilSum() / k.Quanta(), nil
	}
	with, err := run(kernel.DefaultConfig().SchedOverhead)
	if err != nil {
		return OverheadResult{}, err
	}
	without, err := run(0)
	if err != nil {
		return OverheadResult{}, err
	}
	frac := float64(with-without) / 10000
	return OverheadResult{
		PerQuantum: sim.Duration(frac * float64(sim.Quantum)),
		Fraction:   frac,
	}, nil
}

// Render prints the measurement.
func (r OverheadResult) Render() string {
	return fmt.Sprintf(
		"Section 4.3: forced rescheduling overhead = %v per 10ms interval (%.2f%%)\n",
		r.PerQuantum, r.Fraction*100)
}
