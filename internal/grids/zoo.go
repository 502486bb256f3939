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

// TraceConfig is the full-speed trace sweep: per expt.FigureWorkloads
// workload, 30 s at the run seed under the zero Policy (constant full
// speed), its trace kept. The zoo's oracle and the Weiser scoring read the
// same cells, so they share cache entries.
func TraceConfig(seed uint64) clocksched.SweepConfig {
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
	return cfg
}

// traceUtil is one trace cell's per-quantum utilization and its sum, the
// total work; a trace that recorded no work is an error.
func traceUtil(workload string, r *clocksched.Result) ([]float64, float64, error) {
	util := make([]float64, 0, r.TraceLen())
	totalWork := 0.0
	for p := range r.TraceSeq() {
		util = append(util, p.Utilization)
		totalWork += p.Utilization
	}
	if totalWork == 0 {
		return nil, 0, fmt.Errorf("workload %q recorded no work", workload)
	}
	return util, totalWork, nil
}

// ZooConfig is the optimality-gap sweep: TraceConfig's trace cells, each
// workload's followed by the same 30 s under every registered policy at its
// defaults, in name order, every cell's trace kept. The registry is read at
// call time, so policies registered by other packages or tests join the
// comparison.
func ZooConfig(seed uint64) (clocksched.SweepConfig, error) {
	cfg := TraceConfig(seed)
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
		util, totalWork, err := traceUtil(w, group[0].Result)
		if err != nil {
			return nil, fmt.Errorf("zoo: %w", err)
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

// weiserSchedules are Weiser's offline OPT, FUTURE and PAST, in row order.
var weiserSchedules = []func(util []float64, minSpeed float64) ([]float64, error){
	policy.OptSpeeds, policy.FutureSpeeds, policy.PastSpeeds,
}

// Weiser folds a TraceConfig sweep into Weiser et al.'s original
// trace-driven methodology, which the paper's Related Work section
// describes and critiques: each workload's full-speed utilization trace
// scores the offline OPT, FUTURE and PAST schedules in Weiser's speed²
// energy model. Only PAST is implementable; OPT and FUTURE's headroom is
// exactly the energy the online heuristics fail to collect.
func Weiser(res *clocksched.SweepResult) ([]expt.WeiserRow, error) {
	const floor = 0.01
	rows := make([]expt.WeiserRow, 0, len(res.Cells))
	for i, c := range res.Cells {
		w := expt.FigureWorkloads[i]
		util, totalWork, err := traceUtil(w, c.Result)
		if err != nil {
			return nil, fmt.Errorf("weiser: %w", err)
		}
		// OPT defers work to the trace end; FUTURE and PAST must finish
		// each interval's work within it.
		var e [3]policy.TraceResult
		for j, sched := range weiserSchedules {
			speeds, err := sched(util, floor)
			if err != nil {
				return nil, err
			}
			if e[j], err = policy.EvaluateSpeeds(util, speeds, j == 0); err != nil {
				return nil, err
			}
		}
		// Normalize by the full-speed energy: Σ work·1².
		rows = append(rows, expt.WeiserRow{
			Workload:     w,
			OptEnergy:    e[0].Energy / totalWork,
			FutureEnergy: e[1].Energy / totalWork,
			PastEnergy:   e[2].Energy / totalWork,
			PastMissed:   e[2].MissedWork / totalWork,
		})
	}
	return rows, nil
}

var weiser = Experiment{Name: "weiser", Paper: "§3: Weiser trace-driven OPT/FUTURE/PAST scoring", Plan: func(seed uint64) (clocksched.SweepConfig, Fold, error) {
	return TraceConfig(seed), func(res *clocksched.SweepResult, _ *clocksched.Telemetry) (string, []expt.Artifact, error) {
		rows, err := Weiser(res)
		if err != nil {
			return "", nil, err
		}
		return textArtifact("weiser.txt", expt.RenderWeiser(rows))
	}, nil
}}
