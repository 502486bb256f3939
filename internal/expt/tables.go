package expt

import (
	"fmt"
	"strings"

	"clocksched/internal/cpu"
	"clocksched/internal/policy"
	"clocksched/internal/stats"
)

// Table1Row is one scheduling interval of the paper's Table 1.
type Table1Row struct {
	TimeMs   int
	Active   bool
	Weighted int // floor of the AVG_9 weighted utilization, ×10000
	Note     string
}

// Table1 reproduces the AVG_9 trace digit-for-digit: 15 fully-active quanta
// followed by 5 idle quanta, with a 70% scale-up bound and a 50% scale-down
// bound annotating the actions. (The paper's printed value at t=80 ms,
// "5965", is a transposition typo for 5695; the recurrence and the
// following row only follow from 5695.)
func Table1() []Table1Row {
	pred := policy.MustAvgN(9)
	rows := make([]Table1Row, 0, 20)
	for i := 0; i < 20; i++ {
		u := 0
		active := i < 15
		if active {
			u = policy.FullUtil
		}
		w := pred.Observe(u)
		note := ""
		switch {
		case w > policy.PeringBounds.Hi:
			note = "Scale up"
		case w < policy.PeringBounds.Lo:
			note = "Scale down"
		}
		// The table only annotates actions once the system has left its
		// initial idle state: the early sub-50% averages are no-ops at
		// the bottom step.
		if i < 11 && note == "Scale down" {
			note = ""
		}
		rows = append(rows, Table1Row{TimeMs: (i + 1) * 10, Active: active, Weighted: w, Note: note})
	}
	return rows
}

// RenderTable1 prints the rows in the paper's layout.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Scheduling Actions for the AVG_9 Policy\n")
	b.WriteString("Time(ms)  Idle/Active  <W>    Notes\n")
	for _, r := range rows {
		state := "Idle"
		if r.Active {
			state = "Active"
		}
		fmt.Fprintf(&b, "%-9d %-12s %-6d %s\n", r.TimeMs, state, r.Weighted, r.Note)
	}
	return b.String()
}

// Table2Row is one configuration of the paper's Table 2: the energy needed
// to run the 60-second MPEG workload, as a 95% confidence interval over
// repeated runs.
type Table2Row struct {
	Algorithm string
	Energy    stats.Interval
	// Misses counts frame/audio deadlines missed beyond the perceptual
	// slack across all runs — the paper's "best" policy never misses.
	Misses int
	// SpeedChanges is the mean number of clock changes per run.
	SpeedChanges float64
}

// Table2Runs is how many repeated runs (distinct jitter seeds) feed each
// confidence interval.
const Table2Runs = 10

// Table2Algorithms names the five Table 2 configurations in row order:
// three constant-speed baselines, the best-found PAST peg-peg policy, and
// the same policy with voltage scaling below 162.2 MHz. They are the rows
// of clocksched.Table2Config's policy axis.
var Table2Algorithms = []string{
	"Constant Speed @ 206.4 MHz, 1.5 Volts",
	"Constant Speed @ 132.7 MHz, 1.5 Volts",
	"Constant Speed @ 132.7 MHz, 1.23 Volts",
	"PAST, Peg-Peg, Thresholds: >98% up, <93% down, 1.5 Volts",
	"PAST, Peg-Peg, Thresholds: >98% up, <93% down, Voltage Scaling @ 162.2 MHz",
}

// GridCell is one cell of the Table 2 measurement grid: a builder of its
// run spec, called once per run because policy modules carry per-run
// state.
type GridCell struct {
	Spec func() RunSpec
}

// Table2Grid returns the Table 2 measurement grid — every (configuration,
// seed) cell in Table2Algorithms order, seeds 1 to Table2Runs — as live
// run specs. Only the benchmark's simulator probe (perfbench) reads it;
// it and GridCell go when that probe builds its cells from
// clocksched.Table2Config.
func Table2Grid() ([]GridCell, error) {
	constant := func(step cpu.Step, v cpu.Voltage) func() RunSpec {
		return func() RunSpec {
			return RunSpec{Workload: "mpeg", InitialStep: step, InitialV: v}
		}
	}
	best := func(voltageScale bool) func() RunSpec {
		return func() RunSpec {
			gov := policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{},
				policy.BestBounds, voltageScale)
			return RunSpec{Workload: "mpeg", Policy: gov, InitialStep: cpu.MaxStep}
		}
	}
	var cells []GridCell
	for _, build := range []func() RunSpec{
		constant(cpu.MaxStep, cpu.VHigh),
		constant(cpu.Step(5), cpu.VHigh),
		constant(cpu.Step(5), cpu.VLow),
		best(false),
		best(true),
	} {
		for seed := uint64(1); seed <= Table2Runs; seed++ {
			cells = append(cells, GridCell{Spec: func() RunSpec {
				spec := build()
				spec.Seed = seed
				return spec
			}})
		}
	}
	return cells, nil
}

// RenderTable2 prints the rows in the paper's layout, with the extra
// stability columns.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Summary of Performance of Best Clock Scaling Algorithms (MPEG, 60s)\n")
	fmt.Fprintf(&b, "%-78s %-16s %-7s %s\n", "Algorithm", "Energy (J)", "Misses", "Clock changes/run")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-78s %-16s %-7d %.0f\n", r.Algorithm, r.Energy, r.Misses, r.SpeedChanges)
	}
	return b.String()
}

// Table3Row is one clock step's memory timing.
type Table3Row struct {
	Step        cpu.Step
	MemCycles   int64
	CacheCycles int64
}

// Table3 regenerates the memory-access-time table by running the latency
// microbenchmark against the simulated memory system: a burst of isolated
// word reads (and separately full cache-line fills) is timed at each clock
// step and converted back to cycles per access.
func Table3() []Table3Row {
	const accesses = 1_000_000
	rows := make([]Table3Row, 0, cpu.NumSteps)
	for step := cpu.MinStep; step <= cpu.MaxStep; step++ {
		memBurst := cpu.Burst{Mem: accesses}
		lineBurst := cpu.Burst{Cache: accesses}
		// duration µs × kHz/1000 = cycles; divide by accesses.
		memCyc := (int64(memBurst.Duration(step)) * step.KHz()) / 1000 / accesses
		lineCyc := (int64(lineBurst.Duration(step)) * step.KHz()) / 1000 / accesses
		rows = append(rows, Table3Row{Step: step, MemCycles: memCyc, CacheCycles: lineCyc})
	}
	return rows
}

// RenderTable3 prints the rows in the paper's layout.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: Memory access time in cycles\n")
	b.WriteString("Processor Freq.  Cycles/Mem. Reference  Cycles/Cache Reference\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16.1f %-22d %d\n", r.Step.MHz(), r.MemCycles, r.CacheCycles)
	}
	return b.String()
}
