package expt

import (
	"fmt"
	"sort"
	"strings"

	"clocksched/internal/cpu"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

// This file is the standing optimality-gap experiment of ISSUE 8: every
// registered policy × every application workload, scored against the
// offline optimal schedule. The paper's Table 2 compares heuristics to
// each other; this table quantifies how far each one sits from the true
// lower bound.
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
//
// The experiment layer cannot import the policy registry — the root
// clocksched package sits above it — so callers pass the policy list in
// (clocksched.PolicyZoo enumerates the registry).

// ZooPolicy is one comparison policy: a registry name plus a RunSpec
// builder (fresh per call, since kernel policies carry state).
type ZooPolicy struct {
	Name string
	Spec func() (RunSpec, error)
}

// ZooExperiment is the zoo experiment's catalogue entry, comparing the
// given policies.
func ZooExperiment(zoo []ZooPolicy) Experiment {
	return Experiment{
		Name:  "zoo",
		Paper: "optimality gap: every registered policy vs the offline oracle",
		Run: func(env Env) (string, []Artifact, error) {
			rows, err := ZooComparison(env, zoo, 0)
			if err != nil {
				return "", nil, err
			}
			text := RenderZoo(rows)
			return text, []Artifact{{Name: "zoo.txt", Content: text}}, nil
		},
	}
}

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

// ZooComparison runs the optimality-gap grid: the given policies × the
// four application workloads, plus the oracle row per workload. Rows come
// back grouped by workload in FigureWorkloads order, oracle first, then
// policies sorted by name.
func ZooComparison(env Env, zoo []ZooPolicy, duration sim.Duration) ([]ZooRow, error) {
	if duration <= 0 {
		duration = 30 * sim.Second
	}
	zoo = append([]ZooPolicy(nil), zoo...)
	sort.Slice(zoo, func(a, b int) bool { return zoo[a].Name < zoo[b].Name })

	// Builders must be deterministic, so one eager dry run per policy turns
	// any construction error into an immediate failure instead of a grid
	// cell error; the worker-side call below then cannot fail.
	for _, zp := range zoo {
		if _, err := zp.Spec(); err != nil {
			return nil, fmt.Errorf("expt: zoo policy %q: %w", zp.Name, err)
		}
	}

	// One grid for everything: per workload, a full-speed trace cell plus
	// one cell per policy.
	var cells []GridCell
	for _, w := range FigureWorkloads {
		w := w
		cells = append(cells, GridCell{
			Key: fmt.Sprintf("zoo/%s/trace/seed=%d/dur=%d", w, env.Seed, duration),
			Spec: func() RunSpec {
				return RunSpec{
					Workload: w, Seed: env.Seed, Duration: duration,
					InitialStep: cpu.MaxStep,
				}
			},
		})
		for _, zp := range zoo {
			zp := zp
			cells = append(cells, GridCell{
				Key: fmt.Sprintf("zoo/%s/policy=%s/seed=%d/dur=%d", w, zp.Name, env.Seed, duration),
				Spec: func() RunSpec {
					spec, _ := zp.Spec() // validated above
					spec.Workload = w
					spec.Seed = env.Seed
					spec.Duration = duration
					return spec
				},
			})
		}
	}
	out, err := RunGrid(env, cells, true)
	if err != nil {
		return nil, err
	}

	// Index the cells and score each workload group.
	var rows []ZooRow
	for wi, w := range FigureWorkloads {
		base := wi * (1 + len(zoo))
		trace := out[base]
		util := make([]float64, len(trace.Util))
		totalWork := 0.0
		for i, u := range trace.Util {
			util[i] = float64(u.PP10K) / 10000
			totalWork += util[i]
		}
		if totalWork == 0 {
			return nil, fmt.Errorf("expt: zoo workload %q recorded no work", w)
		}
		jobs := policy.OracleFromTrace(util, ZooSlackQuanta)
		sched, err := policy.OptimalSchedule(jobs)
		if err != nil {
			return nil, fmt.Errorf("expt: zoo oracle for %q: %w", w, err)
		}
		if missed, late := policy.VerifySchedule(jobs, sched); missed > 1e-6 || late != 0 {
			return nil, fmt.Errorf("expt: zoo oracle for %q misses %v work (%d jobs)",
				w, missed, late)
		}
		oracleEnergy := sched.Energy()
		rows = append(rows, ZooRow{
			Workload:    w,
			Policy:      ZooOracleName,
			TraceEnergy: oracleEnergy / totalWork,
			Norm:        1,
		})
		for pi, zp := range zoo {
			cell := out[base+1+pi]
			if len(cell.Util) != len(util) {
				return nil, fmt.Errorf("expt: zoo %q/%s: %d quanta vs %d in the trace run",
					w, zp.Name, len(cell.Util), len(util))
			}
			speeds := make([]float64, len(cell.Util))
			for i, u := range cell.Util {
				speeds[i] = float64(u.StepAt.KHz()) / float64(cpu.MaxStep.KHz())
			}
			sc := policy.ScoreSpeeds(jobs, speeds, true)
			missPct := 0.0
			if sc.Jobs > 0 {
				missPct = 100 * float64(sc.LateJobs) / float64(sc.Jobs)
			}
			rows = append(rows, ZooRow{
				Workload:     w,
				Policy:       zp.Name,
				EnergyJ:      cell.EnergyJ,
				Deadlines:    cell.Deadlines,
				Misses:       cell.Misses,
				TraceEnergy:  sc.Energy / totalWork,
				TraceMissPct: missPct,
				Norm:         sc.Energy / oracleEnergy,
			})
		}
	}
	return rows, nil
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
