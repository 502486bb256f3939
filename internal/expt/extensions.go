package expt

import (
	"fmt"
	"strings"

	"clocksched/internal/battery"
	"clocksched/internal/cpu"
	"clocksched/internal/power"
	"clocksched/internal/sim"
)

// This file holds the two experiments that go beyond the paper's published
// tables, in the directions its own text points:
//
//   - The deadline comparison (run by internal/grids; DeadlineRow and its
//     renderer are here) implements the Conclusions' future work ("provide
//     'deadline' mechanisms in Linux") and measures what the paper could
//     not: how much energy an application-informed deadline scheduler
//     recovers over the best heuristic.
//
//   - MartinOptimum implements the Related-Work observation from Martin's
//     thesis that "the lower bound on clock frequency should be chosen such
//     that the number of computations per battery lifetime is maximized".

// DeadlineRow is one policy's result in the deadline comparison.
type DeadlineRow struct {
	Policy       string
	EnergyJ      float64
	Misses       int
	SpeedChanges int
	// ModalMHz is the clock step the run spent the most time at.
	ModalMHz float64
}

// RenderDeadlineComparison prints the comparison.
func RenderDeadlineComparison(rows []DeadlineRow) string {
	var b strings.Builder
	b.WriteString("Extension: deadline-informed scheduling vs the best heuristic (MPEG, 30s)\n")
	fmt.Fprintf(&b, "%-40s %10s %8s %9s %10s\n",
		"Policy", "energy(J)", "misses", "changes", "modal MHz")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s %10.2f %8d %9d %10.1f\n",
			r.Policy, r.EnergyJ, r.Misses, r.SpeedChanges, r.ModalMHz)
	}
	return b.String()
}

// MartinRow is one clock step's computations-per-battery-lifetime.
type MartinRow struct {
	Step cpu.Step
	// BusyW is the whole-system power while continuously computing.
	BusyW float64
	// LifetimeH is the battery lifetime under that constant load, hours.
	LifetimeH float64
	// GigaCycles is clock frequency × lifetime: total computation the
	// battery delivers, in 10⁹ cycles.
	GigaCycles float64
}

// MartinResult is the computations-per-lifetime sweep.
type MartinResult struct {
	Rows []MartinRow
	Best cpu.Step
	// Exponent is the Peukert exponent used.
	Exponent float64
}

// MartinOptimum computes total computation per battery lifetime at each
// clock step for a continuously-busy system, with a Peukert exponent
// appropriate to sustained heavy alkaline loads (the idle-profile fit's
// steep exponent only holds near idle draws). With the rate-capacity
// effect, the optimum is interior: too slow wastes the battery on the
// peripheral floor, too fast collapses the battery's capacity.
func MartinOptimum(exponent float64) (MartinResult, error) {
	m := power.DefaultModel()
	// Reference: a pair of AAA alkaline cells delivers about 1.1 Ah at a
	// gentle 50 mA drain.
	cell, err := battery.NewPeukert(3.0, exponent, 0.05, sim.FromSeconds(1.1/0.05*3600))
	if err != nil {
		return MartinResult{}, err
	}
	res := MartinResult{Exponent: exponent}
	bestVal := -1.0
	for s := cpu.MinStep; s <= cpu.MaxStep; s++ {
		w := m.Power(power.State{Step: s, V: cpu.VHigh, Mode: power.ModeActive})
		life, err := cell.Lifetime(w)
		if err != nil {
			return MartinResult{}, err
		}
		cycles := float64(s.KHz()) * 1000 * life.Seconds() / 1e9
		res.Rows = append(res.Rows, MartinRow{
			Step: s, BusyW: w, LifetimeH: life.Seconds() / 3600, GigaCycles: cycles,
		})
		if cycles > bestVal {
			bestVal = cycles
			res.Best = s
		}
	}
	return res, nil
}

// Render prints the sweep.
func (r MartinResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: computations per battery lifetime (Martin), Peukert k=%.2f\n", r.Exponent)
	b.WriteString("Clock      Busy power  Lifetime  Computation\n")
	for _, row := range r.Rows {
		marker := ""
		if row.Step == r.Best {
			marker = "  ← optimum"
		}
		fmt.Fprintf(&b, "%-10s %.3f W     %5.1f h   %6.0f Gcycles%s\n",
			row.Step, row.BusyW, row.LifetimeH, row.GigaCycles, marker)
	}
	return b.String()
}
