package expt

import (
	"fmt"
	"strings"

	"clocksched/internal/battery"
	"clocksched/internal/cpu"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

// SensitivityCell is one (lower, upper) hysteresis setting on one workload.
type SensitivityCell struct {
	LoPct, HiPct int
	Workload     string
	EnergyJ      float64
	Misses       int
}

// ThresholdSensitivity substantiates the Section 5.3 remark that "the
// specific values are very sensitive to application behavior": it sweeps a
// grid of hysteresis bounds under AVG_9 with one-step scaling (the
// combination whose response lag makes the bounds matter — peg-based
// setters recover in a single quantum whatever the thresholds) across the
// workloads and returns every cell. The result shows there is no single
// (lo, hi) pair that is simultaneously energy-best and miss-free for all
// applications.
func ThresholdSensitivity(seed uint64) ([]SensitivityCell, error) {
	return ThresholdSensitivityEnv(DefaultEnv(seed))
}

// ThresholdSensitivityEnv runs the sensitivity grid across the
// environment's worker pool.
func ThresholdSensitivityEnv(env Env) ([]SensitivityCell, error) {
	grids := []struct{ lo, hi int }{
		{30, 50}, {50, 70}, {70, 85}, {85, 95}, {93, 98},
	}
	workloads := []string{"mpeg", "editor"}
	const length = 20 * sim.Second

	var grid []GridCell
	for _, w := range workloads {
		for _, g := range grids {
			w, g := w, g
			grid = append(grid, GridCell{
				Key: fmt.Sprintf("sensitivity|%s|%d-%d|seed=%d|dur=%d", w, g.lo, g.hi, env.Seed, length),
				Spec: func() RunSpec {
					gov := policy.MustGovernor(policy.MustAvgN(9), policy.One{}, policy.One{},
						policy.Bounds{Lo: g.lo * 100, Hi: g.hi * 100}, false)
					return RunSpec{
						Workload: w, Seed: env.Seed, Duration: length,
						Policy: gov, InitialStep: cpu.MaxStep,
					}
				},
			})
		}
	}
	out, err := RunGrid(env, grid, false)
	if err != nil {
		return nil, err
	}
	cells := make([]SensitivityCell, 0, len(out))
	for i, c := range out {
		g := grids[i%len(grids)]
		cells = append(cells, SensitivityCell{
			LoPct: g.lo, HiPct: g.hi, Workload: workloads[i/len(grids)],
			EnergyJ: c.EnergyJ,
			Misses:  c.Misses,
		})
	}
	return cells, nil
}

// RenderSensitivity prints the grid.
func RenderSensitivity(cells []SensitivityCell) string {
	var b strings.Builder
	b.WriteString("Section 5.3: hysteresis thresholds are sensitive to application behaviour\n")
	fmt.Fprintf(&b, "%-10s %-10s %10s %8s\n", "workload", "bounds", "energy(J)", "misses")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10s %3d%%-%3d%% %10.2f %8d\n",
			c.Workload, c.LoPct, c.HiPct, c.EnergyJ, c.Misses)
	}
	return b.String()
}

// ExhaustionResult is the outcome of playing MPEG until the batteries die,
// with the cell drained by the actual piecewise power timeline rather than
// its average — so the pulsed-discharge recovery of the idle quanta is
// credited.
type ExhaustionResult struct {
	Policy string
	// Played is how much playback the cell sustained.
	Played sim.Duration
	// AvgPowerW is the average power of the playback loop.
	AvgPowerW float64
}

// PlayUntilExhaustion loops a measured 30-second MPEG power profile through
// a kinetic battery model until the cell gives out, for a constant-speed
// baseline and the best heuristic. The KiBaM cell is sized like a pair of
// AAA alkalines (≈1.1 Ah at 3 V).
func PlayUntilExhaustion(seed uint64) ([]ExhaustionResult, error) {
	type cfg struct {
		name string
		spec RunSpec
	}
	configs := []cfg{
		{"Constant 206.4 MHz", RunSpec{Workload: "mpeg", Seed: seed,
			Duration: 30 * sim.Second, InitialStep: cpu.MaxStep}},
		{"PAST, peg-peg, 93%-98%", RunSpec{Workload: "mpeg", Seed: seed,
			Duration: 30 * sim.Second, InitialStep: cpu.MaxStep,
			Policy: policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{},
				policy.BestBounds, false)}},
	}
	var out []ExhaustionResult
	for _, c := range configs {
		run, err := Run(c.spec)
		if err != nil {
			return nil, err
		}
		cell, err := battery.NewKiBaM(3.0, 1.1, 0.4, 0.0005)
		if err != nil {
			return nil, err
		}
		// Convert the recorded timeline into a repeating load pattern.
		points, err := run.Kernel.Recorder().Points()
		if err != nil {
			return nil, err
		}
		end := run.Kernel.Recorder().End()
		pattern := make([]battery.LoadPhase, 0, len(points))
		for i, p := range points {
			phaseEnd := end
			if i+1 < len(points) {
				phaseEnd = points[i+1].At
			}
			if phaseEnd > p.At {
				pattern = append(pattern, battery.LoadPhase{Watts: p.Watts, For: phaseEnd - p.At})
			}
		}
		life, err := cell.LifetimeUnder(pattern, 48*3600*sim.Second)
		if err != nil {
			return nil, err
		}
		out = append(out, ExhaustionResult{
			Policy:    c.name,
			Played:    life,
			AvgPowerW: run.AvgPowerW,
		})
	}
	return out, nil
}

// RenderExhaustion prints the endurance results.
func RenderExhaustion(rows []ExhaustionResult) string {
	var b strings.Builder
	b.WriteString("MPEG playback to battery exhaustion (KiBaM 1.1 Ah, real power timeline)\n")
	fmt.Fprintf(&b, "%-30s %9s %10s\n", "Policy", "power(W)", "playback")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %9.3f %9.2fh\n", r.Policy, r.AvgPowerW, r.Played.Seconds()/3600)
	}
	return b.String()
}

// SA2Projection reproduces the worked example of Section 2.1: on a
// voltage-scaling processor like the (then-future) StrongARM SA-2 — 500 mW
// at 600 MHz but 40 mW at 150 MHz — a 600-million-instruction computation
// takes four times longer at the low setting but uses about a quarter of
// the energy.
type SA2Projection struct {
	FastTime, SlowTime     float64 // seconds
	FastEnergy, SlowEnergy float64 // joules
}

// SA2Example computes the projection.
func SA2Example() SA2Projection {
	const (
		instructions = 600e6
		fastHz       = 600e6
		slowHz       = 150e6
		fastW        = 0.500
		slowW        = 0.040
	)
	p := SA2Projection{
		FastTime: instructions / fastHz,
		SlowTime: instructions / slowHz,
	}
	p.FastEnergy = p.FastTime * fastW
	p.SlowEnergy = p.SlowTime * slowW
	return p
}

// Render prints the example in the paper's terms.
func (p SA2Projection) Render() string {
	return fmt.Sprintf(
		"Section 2.1 projection (StrongARM SA-2, 600M instructions):\n"+
			"  600 MHz: %.0f s, %.0f mJ\n  150 MHz: %.0f s, %.0f mJ\n"+
			"  %.1f× energy saving for %.0f× slowdown — why voltage scaling matters\n",
		p.FastTime, p.FastEnergy*1000, p.SlowTime, p.SlowEnergy*1000,
		p.FastEnergy/p.SlowEnergy, p.SlowTime/p.FastTime)
}
