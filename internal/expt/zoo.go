package expt

import (
	"fmt"
	"strings"
)

// The rows and rendering of the optimality-gap experiment, which
// internal/grids runs: every registered policy × every application
// workload, scored against the offline optimal schedule.

// ZooSlackQuanta is the deadline slack granted to each trace interval's
// work in the oracle instance: 3 quanta ≈ 30 ms, the paper's perceptual
// latency budget (and just inside the 33 ms Table 2 miss threshold).
const ZooSlackQuanta = 3

// ZooOracleName labels the oracle row of the comparison table.
const ZooOracleName = "oracle"

// ZooRow is one (workload, policy) comparison entry.
type ZooRow struct {
	Workload string
	Policy   string
	// Real-simulation measurements (zero for the oracle row, which does
	// not run on the simulated hardware).
	EnergyJ   float64
	Deadlines int
	Misses    int
	// Trace-model scoring against the oracle instance.
	TraceEnergy  float64 // deadline-charged energy, normalized to full-speed
	TraceMissPct float64 // per-job deadline miss rate in the trace replay
	Norm         float64 // TraceEnergy / oracle's TraceEnergy (the gap)
}

// RenderZoo prints the optimality-gap table deterministically.
func RenderZoo(rows []ZooRow) string {
	var b strings.Builder
	b.WriteString("Optimality gap: registered policies vs the offline optimal schedule\n")
	b.WriteString("(trace model: energy relative to running everything at full speed;\n")
	b.WriteString(" ×opt = deadline-charged energy over the oracle's; slack 30 ms)\n\n")
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			if last != "" {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "%s\n", r.Workload)
			fmt.Fprintf(&b, "  %-14s %8s %7s %10s %8s %10s\n",
				"policy", "energy", "×opt", "miss", "E(J)", "sim misses")
			last = r.Workload
		}
		if r.Policy == ZooOracleName {
			fmt.Fprintf(&b, "  %-14s %8.3f %7.2f %9.1f%% %8s %10s\n",
				r.Policy, r.TraceEnergy, r.Norm, 0.0, "—", "—")
			continue
		}
		fmt.Fprintf(&b, "  %-14s %8.3f %7.2f %9.1f%% %8.2f %6d/%d\n",
			r.Policy, r.TraceEnergy, r.Norm, r.TraceMissPct,
			r.EnergyJ, r.Misses, r.Deadlines)
	}
	return b.String()
}
