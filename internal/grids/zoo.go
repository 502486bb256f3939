package grids

import (
	"fmt"
	"math"
	"time"

	"clocksched"
	"clocksched/internal/cpu"
	"clocksched/internal/expt"
	"clocksched/internal/policy"
)

// This file is the standing optimality-gap experiment: every registered
// policy × every application workload, scored against the offline optimal
// schedule. The paper's Table 2 compares heuristics to each other; this
// table quantifies how far each one sits from the true lower bound.
//
// Method. For each workload, a full-speed run records the per-quantum
// utilization trace; each interval's work, granted the paper's ~30 ms
// perceptual slack (3 quanta), forms the oracle's job instance. The
// Li–Yao–Yuan schedule of that instance is the clairvoyant optimum. Each
// policy then runs the same workload for real, and the step sequence it
// actually chose is replayed against the oracle instance in the trace
// energy model (Σ work·speed², speeds relative to the top step), serving
// work earliest-deadline-first; work served past its deadline — or never —
// is charged at full speed (the makeup convention of policy.ScoreSpeeds),
// since late work forfeits exactly the slowdown that saved the energy. A
// feasible schedule can therefore never score below the oracle, and the
// table's "×opt" column is a true optimality gap.

// ZooConfig is the optimality-gap sweep: per expt.FigureWorkloads
// workload, 30 s at the run seed under constant full speed (the trace
// cell) and then under every registered policy at its defaults, in name
// order, every cell's trace kept. The registry is read at call time, so
// policies registered by other packages or tests join the comparison.
func ZooConfig(seed uint64) (clocksched.SweepConfig, error) {
	cfg := clocksched.SweepConfig{
		Policies:     []clocksched.Policy{{}},
		Seeds:        []uint64{seed},
		Duration:     30 * time.Second,
		CaptureTrace: true,
		FailFast:     true,
	}
	for _, w := range expt.FigureWorkloads {
		cfg.Workloads = append(cfg.Workloads, clocksched.Workload(w))
	}
	for _, name := range clocksched.RegisteredPolicies() {
		p, err := clocksched.NewPolicy(name, nil)
		if err != nil {
			return clocksched.SweepConfig{}, fmt.Errorf("zoo policy %q: %w", name, err)
		}
		cfg.Policies = append(cfg.Policies, p)
	}
	return cfg, nil
}

// ZooComparison folds a ZooConfig sweep into the optimality-gap rows,
// grouped by workload in expt.FigureWorkloads order: the oracle first,
// then the policies in name order.
func ZooComparison(cfg clocksched.SweepConfig, res *clocksched.SweepResult) ([]expt.ZooRow, error) {
	np := len(cfg.Policies)
	if want := len(expt.FigureWorkloads) * np; len(res.Cells) != want {
		return nil, fmt.Errorf("zoo: %d cells, want %d", len(res.Cells), want)
	}
	var rows []expt.ZooRow
	for wi, w := range expt.FigureWorkloads {
		group := res.Cells[wi*np : (wi+1)*np]
		trace := group[0].Result
		util := make([]float64, 0, trace.TraceLen())
		totalWork := 0.0
		for p := range trace.TraceSeq() {
			util = append(util, p.Utilization)
			totalWork += p.Utilization
		}
		if totalWork == 0 {
			return nil, fmt.Errorf("zoo: workload %q recorded no work", w)
		}
		jobs := policy.OracleFromTrace(util, expt.ZooSlackQuanta)
		sched, err := policy.OptimalSchedule(jobs)
		if err != nil {
			return nil, fmt.Errorf("zoo: oracle for %q: %w", w, err)
		}
		if missed, late := policy.VerifySchedule(jobs, sched); missed > 1e-6 || late != 0 {
			return nil, fmt.Errorf("zoo: oracle for %q misses %v work (%d jobs)",
				w, missed, late)
		}
		oracleEnergy := sched.Energy()
		rows = append(rows, expt.ZooRow{
			Workload:    w,
			Policy:      expt.ZooOracleName,
			TraceEnergy: oracleEnergy / totalWork,
			Norm:        1,
		})
		for pi, p := range cfg.Policies[1:] {
			r := group[1+pi].Result
			if r.TraceLen() != len(util) {
				return nil, fmt.Errorf("zoo: %q/%s: %d quanta vs %d in the trace run",
					w, p.Ref.Name, r.TraceLen(), len(util))
			}
			speeds := make([]float64, 0, len(util))
			for u := range r.TraceSeq() {
				khz := int64(math.Round(u.MHz * 1000))
				speeds = append(speeds, float64(khz)/float64(cpu.MaxStep.KHz()))
			}
			sc := policy.ScoreSpeeds(jobs, speeds, true)
			missPct := 0.0
			if sc.Jobs > 0 {
				missPct = 100 * float64(sc.LateJobs) / float64(sc.Jobs)
			}
			rows = append(rows, expt.ZooRow{
				Workload:     w,
				Policy:       p.Ref.Name,
				EnergyJ:      r.EnergyJoules,
				Deadlines:    r.Deadlines,
				Misses:       r.Misses,
				TraceEnergy:  sc.Energy / totalWork,
				TraceMissPct: missPct,
				Norm:         sc.Energy / oracleEnergy,
			})
		}
	}
	return rows, nil
}

var zoo = Experiment{Name: "zoo", Paper: "optimality gap: every registered policy vs the offline oracle", Plan: func(seed uint64) (clocksched.SweepConfig, Fold, error) {
	cfg, err := ZooConfig(seed)
	return cfg, func(res *clocksched.SweepResult, _ *clocksched.Telemetry) (string, []expt.Artifact, error) {
		rows, err := ZooComparison(cfg, res)
		if err != nil {
			return "", nil, err
		}
		return textArtifact("zoo.txt", expt.RenderZoo(rows))
	}, err
}}
