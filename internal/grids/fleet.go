package grids

import (
	"clocksched"
	"clocksched/internal/expt"
	"clocksched/internal/fleet"
)

// fleetExperiment is the standing fleet experiment: fleet.ExperimentSpec
// over fleet.ExperimentDevices, compiled once, its feasible cells swept and
// reduced to the population summary. A fleet does not stop at its first
// failed cell. A plan whose every pairing is infeasible has no cells, and
// reduces to pure skip buckets without a sweep.
var fleetExperiment = Experiment{
	Name:  "fleet",
	Paper: "population-scale sweep: the policy zoo across a simulated device fleet",
	Plan: func(seed uint64) (clocksched.SweepConfig, Fold, error) {
		spec, err := fleet.ExperimentSpec(seed, fleet.ExperimentDevices())
		if err != nil {
			return clocksched.SweepConfig{}, nil, err
		}
		plan, err := spec.Compile()
		if err != nil {
			return clocksched.SweepConfig{}, nil, err
		}
		return clocksched.SweepConfig{Cells: plan.Cells}, func(res *clocksched.SweepResult, tel *clocksched.Telemetry) (string, []expt.Artifact, error) {
			pop, err := fleet.ReduceCounted(plan, res, tel)
			if err != nil {
				return "", nil, err
			}
			return textArtifact("fleet.txt", pop.Render())
		}, nil
	},
}
