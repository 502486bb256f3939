package expt

import (
	"context"
	"fmt"
	"strings"

	"clocksched/internal/cpu"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

// This file applies Weiser et al.'s original trace-driven methodology —
// which the paper's Related Work section describes and critiques — to this
// reproduction's workloads: record a per-quantum utilization trace from a
// full-speed run, then score the offline OPT, FUTURE and PAST schedules on
// it using Weiser's speed² energy model. The point the paper makes is that
// only PAST is implementable, and OPT/FUTURE's headroom is exactly the
// energy the online heuristics fail to collect.

// WeiserRow is one workload's offline-schedule scoring.
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

// WeiserOnWorkloads records utilization traces from full-speed runs of the
// four applications and scores the offline schedules on each.
func WeiserOnWorkloads(seed uint64) ([]WeiserRow, error) {
	const floor = 0.01
	rows := make([]WeiserRow, 0, len(FigureWorkloads))
	for _, w := range FigureWorkloads {
		out, err := RunContext(context.TODO(), RunSpec{
			Workload: w, Seed: seed,
			Duration:    30 * sim.Second,
			InitialStep: cpu.MaxStep,
		})
		if err != nil {
			return nil, err
		}
		util := make([]float64, 0, len(out.Kernel.UtilLog()))
		totalWork := 0.0
		for _, u := range out.Kernel.UtilLog() {
			v := float64(u.PP10K) / 10000
			util = append(util, v)
			totalWork += v
		}
		if totalWork == 0 {
			return nil, fmt.Errorf("weiser: workload %q recorded no work", w)
		}

		opt, err := policy.OptSpeeds(util, floor)
		if err != nil {
			return nil, err
		}
		fut, err := policy.FutureSpeeds(util, floor)
		if err != nil {
			return nil, err
		}
		pst, err := policy.PastSpeeds(util, floor)
		if err != nil {
			return nil, err
		}
		eOpt, err := policy.EvaluateSpeeds(util, opt, true)
		if err != nil {
			return nil, err
		}
		eFut, err := policy.EvaluateSpeeds(util, fut, false)
		if err != nil {
			return nil, err
		}
		ePst, err := policy.EvaluateSpeeds(util, pst, false)
		if err != nil {
			return nil, err
		}
		// Normalize by the full-speed energy: Σ work·1².
		rows = append(rows, WeiserRow{
			Workload:     w,
			OptEnergy:    eOpt.Energy / totalWork,
			FutureEnergy: eFut.Energy / totalWork,
			PastEnergy:   ePst.Energy / totalWork,
			PastMissed:   ePst.MissedWork / totalWork,
		})
	}
	return rows, nil
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
