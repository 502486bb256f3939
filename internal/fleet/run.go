package fleet

import (
	"context"

	"clocksched"
)

// Run compiles the spec, executes the surviving cells, and reduces the
// results into a Population; see RunPlan.
func Run(ctx context.Context, spec Spec, cfg clocksched.SweepConfig) (*Population, error) {
	plan, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, plan, cfg)
}

// RunPlan executes an already-compiled plan as one sweep of its cells. cfg
// carries the execution resources — workers, cache, journal, resilience,
// progress and telemetry — which affect how fast a fleet runs but never
// what it measures; its Cells are replaced by the plan's. The same plan
// run serially, with 8 workers, or resumed from a journal reduces to a
// byte-identical population summary. The feasibility skips never execute
// but are always reported; a plan whose every pairing is infeasible
// reduces to pure skip buckets without touching the sweep engine.
func RunPlan(ctx context.Context, plan *Plan, cfg clocksched.SweepConfig) (*Population, error) {
	res := &clocksched.SweepResult{}
	if len(plan.Cells) > 0 {
		cfg.Cells = plan.Cells
		var err error
		if res, err = clocksched.Sweep(ctx, cfg); err != nil {
			return nil, err
		}
	}
	return ReduceCounted(plan, res, cfg.Telemetry)
}

// ReduceCounted is Reduce that also counts the plan and its population
// into tel's fleet_* counters: devices, cells, infeasible pairings, and the
// measured and failed cells. A nil tel counts nowhere.
func ReduceCounted(plan *Plan, res *clocksched.SweepResult, tel *clocksched.Telemetry) (*Population, error) {
	pop, err := Reduce(plan, res)
	if err != nil {
		return nil, err
	}
	reg := tel.Registry()
	reg.Counter("fleet_devices_total").Add(int64(len(plan.Devices)))
	reg.Counter("fleet_cells_total").Add(int64(len(plan.Cells)))
	reg.Counter("fleet_infeasible_total").Add(int64(len(plan.Skips)))
	var measured, failed int64
	for _, r := range pop.Rows {
		measured += int64(r.Measured)
		failed += int64(r.Failed)
	}
	reg.Counter("fleet_cells_measured").Add(measured)
	reg.Counter("fleet_cells_failed").Add(failed)
	return pop, nil
}
