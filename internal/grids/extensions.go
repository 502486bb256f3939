package grids

import (
	"time"

	"clocksched"
	"clocksched/internal/cpu"
	"clocksched/internal/expt"
)

// deadlinePolicies names the deadline comparison's configurations, in row
// order, by their registry refs.
var deadlinePolicies = []struct {
	name string
	ref  clocksched.PolicyRef
}{
	{"Constant 206.4 MHz", clocksched.PolicyRef{Name: "constant"}},
	{"PAST, peg-peg, 93%-98% (paper's best)", clocksched.PolicyRef{Name: "past-peg-peg"}},
	{"DEADLINE (future work)", clocksched.PolicyRef{Name: "deadline"}},
	{"DEADLINE + voltage scaling", clocksched.PolicyRef{Name: "deadline", Params: map[string]float64{"voltage_scale": 1}}},
}

// DeadlineConfig is the deadline comparison's sweep: 30 s of MPEG under
// constant full speed, the paper's best heuristic, and the deadline
// scheduler with and without voltage scaling, all at the run seed.
func DeadlineConfig(seed uint64) (clocksched.SweepConfig, error) {
	cfg := clocksched.SweepConfig{
		Workloads: []clocksched.Workload{clocksched.MPEG},
		Seeds:     []uint64{seed},
		Duration:  30 * time.Second,
		FailFast:  true,
	}
	for _, d := range deadlinePolicies {
		p, err := d.ref.Build()
		if err != nil {
			return clocksched.SweepConfig{}, err
		}
		cfg.Policies = append(cfg.Policies, p)
	}
	return cfg, nil
}

// DeadlineComparison folds a DeadlineConfig sweep into its rows: how much
// energy an application-informed deadline scheduler recovers over the best
// heuristic. A row's modal step is the one the run spent the most time
// at, the slowest of any tie.
func DeadlineComparison(res *clocksched.SweepResult) []expt.DeadlineRow {
	rows := make([]expt.DeadlineRow, 0, len(res.Cells))
	for i, c := range res.Cells {
		row := expt.DeadlineRow{
			Policy:       deadlinePolicies[i].name,
			EnergyJ:      c.Result.EnergyJoules,
			Misses:       c.Result.Misses,
			SpeedChanges: c.Result.ClockChanges,
		}
		var modal time.Duration
		for s := cpu.MinStep; s <= cpu.MaxStep; s++ {
			if d := c.Result.TimeAtMHz[s.MHz()]; d > modal {
				modal = d
				row.ModalMHz = s.MHz()
			}
		}
		rows = append(rows, row)
	}
	return rows
}

var deadline = Experiment{Name: "deadline", Paper: "§6 future work: deadline scheduling", Plan: func(seed uint64) (clocksched.SweepConfig, Fold, error) {
	cfg, err := DeadlineConfig(seed)
	return cfg, func(res *clocksched.SweepResult, _ *clocksched.Telemetry) (string, []expt.Artifact, error) {
		return textArtifact("deadline.txt", expt.RenderDeadlineComparison(DeadlineComparison(res)))
	}, err
}}

// sensitivityBounds and sensitivityWorkloads span the sensitivity grid.
var (
	sensitivityBounds = []struct{ lo, hi int }{
		{30, 50}, {50, 70}, {70, 85}, {85, 95}, {93, 98},
	}
	sensitivityWorkloads = []clocksched.Workload{clocksched.MPEG, clocksched.TalkingEditor}
)

// SensitivityConfig is the threshold sensitivity sweep: 20 s of each
// workload under AVG_9 with one-step scaling — the combination whose
// response lag makes the bounds matter; peg-based setters recover in a
// single quantum whatever the thresholds — at each (lo, hi) bound pair.
func SensitivityConfig(seed uint64) clocksched.SweepConfig {
	cfg := clocksched.SweepConfig{
		Workloads: sensitivityWorkloads,
		Seeds:     []uint64{seed},
		Duration:  20 * time.Second,
		FailFast:  true,
	}
	for _, b := range sensitivityBounds {
		cfg.Policies = append(cfg.Policies, clocksched.Policy{
			AvgN: 9, Up: clocksched.One, Down: clocksched.One, LoPercent: b.lo, HiPercent: b.hi,
		})
	}
	return cfg
}

// ThresholdSensitivity folds a SensitivityConfig sweep into its cells. It
// substantiates the Section 5.3 remark that "the specific values are very
// sensitive to application behavior": no single (lo, hi) pair is both
// energy-best and miss-free for every application.
func ThresholdSensitivity(res *clocksched.SweepResult) []expt.SensitivityCell {
	cells := make([]expt.SensitivityCell, 0, len(res.Cells))
	for i, c := range res.Cells {
		b := sensitivityBounds[i%len(sensitivityBounds)]
		cells = append(cells, expt.SensitivityCell{
			LoPct: b.lo, HiPct: b.hi, Workload: string(sensitivityWorkloads[i/len(sensitivityBounds)]),
			EnergyJ: c.Result.EnergyJoules,
			Misses:  c.Result.Misses,
		})
	}
	return cells
}

var sensitivity = Experiment{Name: "sensitivity", Paper: "§5.3: threshold sensitivity", Plan: func(seed uint64) (clocksched.SweepConfig, Fold, error) {
	return SensitivityConfig(seed), func(res *clocksched.SweepResult, _ *clocksched.Telemetry) (string, []expt.Artifact, error) {
		return textArtifact("sensitivity.txt", expt.RenderSensitivity(ThresholdSensitivity(res)))
	}, nil
}}
