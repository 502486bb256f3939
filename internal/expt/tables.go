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

// table2Config names one Table 2 configuration and builds its run spec.
// The spec builder is called per run because governors carry state.
type table2Config struct {
	name string
	spec func() RunSpec
}

// table2Specs lists the five Table 2 configurations; PlaybackLifetime
// reuses them.
func table2Specs() ([]table2Config, error) {
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
	return []table2Config{
		{"Constant Speed @ 206.4 MHz, 1.5 Volts", constant(cpu.MaxStep, cpu.VHigh)},
		{"Constant Speed @ 132.7 MHz, 1.5 Volts", constant(cpu.Step(5), cpu.VHigh)},
		{"Constant Speed @ 132.7 MHz, 1.23 Volts", constant(cpu.Step(5), cpu.VLow)},
		{"PAST, Peg-Peg, Thresholds: >98% up, <93% down, 1.5 Volts", best(false)},
		{"PAST, Peg-Peg, Thresholds: >98% up, <93% down, Voltage Scaling @ 162.2 MHz", best(true)},
	}, nil
}

// Table2 reproduces the energy comparison of the best clock scaling
// algorithms on MPEG: three constant-speed baselines, the best-found PAST
// peg-peg policy, and the same policy with voltage scaling below 162.2 MHz.
// It runs the grid serially; Table2Env fans it across workers.
func Table2() ([]Table2Row, error) {
	return Table2Env(DefaultEnv(0))
}

// Table2Grid returns the Table 2 measurement grid — every (configuration,
// seed) cell in presentation order — so sweeps and benchmarks can run the
// exact grid the table folds.
func Table2Grid() ([]GridCell, error) {
	configs, err := table2Specs()
	if err != nil {
		return nil, err
	}
	var cells []GridCell
	for _, c := range configs {
		for seed := uint64(1); seed <= Table2Runs; seed++ {
			build := c.spec
			cells = append(cells, GridCell{
				Key: fmt.Sprintf("table2|%s|seed=%d", c.name, seed),
				Spec: func() RunSpec {
					spec := build()
					spec.Seed = seed
					return spec
				},
			})
		}
	}
	return cells, nil
}

// Table2Env reproduces Table 2 across the environment's worker pool. The
// rows are bit-identical whatever the worker count: each cell is an
// independent deterministic simulation and the merge is ordered by grid
// index.
func Table2Env(env Env) ([]Table2Row, error) {
	grid, err := Table2Grid()
	if err != nil {
		return nil, err
	}
	cells, err := RunGrid(env, grid, false)
	if err != nil {
		return nil, fmt.Errorf("table 2: %w", err)
	}
	return FoldTable2(cells)
}

// FoldTable2 reduces the Table 2 grid's cells, in Table2Grid order, to the
// table's rows: a 95% CI over per-run energy, total deadline misses, and
// the mean clock-change count. Only EnergyJ, Misses and SpeedChanges are
// read, so a sweep run elsewhere (clocksched.Table2Config) folds through
// the same code.
func FoldTable2(cells []Cell) ([]Table2Row, error) {
	configs, err := table2Specs()
	if err != nil {
		return nil, err
	}
	if len(cells) != len(configs)*Table2Runs {
		return nil, fmt.Errorf("table 2: %d cells, want %d", len(cells), len(configs)*Table2Runs)
	}
	rows := make([]Table2Row, 0, len(configs))
	for ci, c := range configs {
		energies := make([]float64, 0, Table2Runs)
		misses := 0
		changes := 0
		for si := 0; si < Table2Runs; si++ {
			cell := cells[ci*Table2Runs+si]
			energies = append(energies, cell.EnergyJ)
			misses += cell.Misses
			changes += cell.SpeedChanges
		}
		ci95, err := stats.CI95(energies)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Algorithm:    c.name,
			Energy:       ci95,
			Misses:       misses,
			SpeedChanges: float64(changes) / Table2Runs,
		})
	}
	return rows, nil
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
