package expt

import (
	"fmt"
	"strings"
)

// WeiserRow is one workload's offline-schedule scoring of Weiser et al.'s
// trace-driven methodology; the cells and the fold are grids.Weiser's.
type WeiserRow struct {
	Workload string
	// Energies are relative (Weiser's Σ work·speed² model), normalized so
	// running everything at full speed is 1.0.
	OptEnergy    float64
	FutureEnergy float64
	PastEnergy   float64
	// PastMissed is the work PAST left undone (fraction of total work) —
	// the lag cost that shows up as missed deadlines in a live system.
	PastMissed float64
}

// RenderWeiser prints the scoring.
func RenderWeiser(rows []WeiserRow) string {
	var b strings.Builder
	b.WriteString("Weiser trace-driven scoring on this reproduction's workloads (energy relative to full speed)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %12s\n", "workload", "OPT", "FUTURE", "PAST", "PAST missed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8.3f %8.3f %8.3f %11.1f%%\n",
			r.Workload, r.OptEnergy, r.FutureEnergy, r.PastEnergy, r.PastMissed*100)
	}
	b.WriteString("OPT and FUTURE need future knowledge; PAST is implementable but lags — and the\n" +
		"missed-work column is what surfaces as missed deadlines in the live system.\n")
	return b.String()
}
