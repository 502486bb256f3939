package fleet

import (
	"fmt"
	"sort"
	"strings"

	"clocksched"
	"clocksched/internal/stats"
)

// PolicyRow is the population's verdict on one policy: how many devices
// it governed, the energy distribution across them, and the aggregate
// deadline and watchdog behaviour. Percentiles are nearest-rank (no
// interpolation), so the row is a pure function of the cell results and
// byte-identical however the cells were executed.
type PolicyRow struct {
	// Policy is the display name; Index its position in Spec.Policies.
	Policy string
	Index  int

	// Devices = Measured + Failed + Infeasible: every device in the
	// population is accounted for in exactly one bucket.
	Devices    int
	Measured   int
	Failed     int
	Infeasible int

	// EnergyP50/P95/P99 are nearest-rank percentiles of per-device session
	// energy in joules, over the measured devices.
	EnergyP50 float64
	EnergyP95 float64
	EnergyP99 float64

	// MissRate is population-aggregate: total misses over total deadlines
	// across all measured devices (not a mean of per-device rates, which
	// would overweight short sessions).
	MissRate float64
	// WatchdogFraction is the share of measured devices whose watchdog
	// tripped at least once.
	WatchdogFraction float64
}

// SkipSummary aggregates the infeasible bucket for one workload×policy
// pairing — the structured report of what the pre-pass refused to run.
type SkipSummary struct {
	Workload clocksched.Workload
	Policy   string
	Count    int
	EstUtil  float64
	MinMHz   float64
}

// Population is the reduced fleet result.
type Population struct {
	Spec Spec
	// Rows has one entry per policy, in Spec.Policies order.
	Rows []PolicyRow
	// Skipped aggregates Plan.Skips by (workload, policy), sorted by
	// policy index then workload name.
	Skipped []SkipSummary
	// ClassCounts is the generated population's composition.
	ClassCounts map[clocksched.Workload]int
}

// Reduce folds the sweep's per-cell results back into population
// distributions using the plan's cell↔(device, policy) mapping. Cells
// that errored are counted in the Failed bucket rather than poisoning the
// percentiles; the skip bucket is carried through from the plan.
func Reduce(plan *Plan, res *clocksched.SweepResult) (*Population, error) {
	if plan == nil {
		return nil, fmt.Errorf("fleet: reduce: nil plan")
	}
	ncells := 0
	if res != nil {
		ncells = len(res.Cells)
	}
	if ncells != len(plan.Cells) {
		return nil, fmt.Errorf("fleet: reduce: sweep returned %d cells, plan has %d", ncells, len(plan.Cells))
	}

	pop := &Population{Spec: plan.Spec, ClassCounts: make(map[clocksched.Workload]int)}
	for _, d := range plan.Devices {
		pop.ClassCounts[d.Workload]++
	}

	type acc struct {
		energies  []float64
		misses    int64
		deadlines int64
		tripped   int
		failed    int
	}
	accs := make([]acc, len(plan.Spec.Policies))
	for i, cell := range res.Cells {
		ref := plan.Refs[i]
		a := &accs[ref.Policy]
		if cell.Err != nil {
			a.failed++
			continue
		}
		a.energies = append(a.energies, cell.Result.EnergyJoules)
		a.misses += int64(cell.Result.Misses)
		a.deadlines += int64(cell.Result.Deadlines)
		if wd := cell.Result.Watchdog; wd != nil && wd.Trips > 0 {
			a.tripped++
		}
	}

	skipped := make([]int, len(plan.Spec.Policies))
	for _, s := range plan.Skips {
		skipped[s.Policy]++
	}

	for pi, pol := range plan.Spec.Policies {
		a := accs[pi]
		row := PolicyRow{
			Policy:     pol.Name(),
			Index:      pi,
			Measured:   len(a.energies),
			Failed:     a.failed,
			Infeasible: skipped[pi],
		}
		row.Devices = row.Measured + row.Failed + row.Infeasible
		if len(a.energies) > 0 {
			qs, err := stats.Quantiles(a.energies, 50, 95, 99)
			if err != nil {
				return nil, fmt.Errorf("fleet: reduce: %w", err)
			}
			row.EnergyP50, row.EnergyP95, row.EnergyP99 = qs[0], qs[1], qs[2]
		}
		if a.deadlines > 0 {
			row.MissRate = float64(a.misses) / float64(a.deadlines)
		}
		if row.Measured > 0 {
			row.WatchdogFraction = float64(a.tripped) / float64(row.Measured)
		}
		pop.Rows = append(pop.Rows, row)
	}

	// Aggregate the skip bucket by (policy, workload) for the report.
	type skey struct {
		policy int
		class  clocksched.Workload
	}
	agg := make(map[skey]*SkipSummary)
	for _, s := range plan.Skips {
		k := skey{policy: s.Policy, class: s.Workload}
		sum := agg[k]
		if sum == nil {
			sum = &SkipSummary{
				Workload: s.Workload,
				Policy:   s.PolicyName,
				EstUtil:  s.EstUtil,
				MinMHz:   s.MinFeasibleMHz,
			}
			agg[k] = sum
		}
		sum.Count++
	}
	keys := make([]skey, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].policy != keys[b].policy {
			return keys[a].policy < keys[b].policy
		}
		return keys[a].class < keys[b].class
	})
	for _, k := range keys {
		pop.Skipped = append(pop.Skipped, *agg[k])
	}
	return pop, nil
}

// Render prints the population table in a fixed-width deterministic
// layout; golden tests compare it byte-for-byte across execution modes.
func (p *Population) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet population: %d devices, seed %d\n", p.Spec.Devices, p.Spec.Seed)
	classes := make([]string, 0, len(p.ClassCounts))
	for c := range p.ClassCounts {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s %d", c, p.ClassCounts[clocksched.Workload(c)]))
	}
	fmt.Fprintf(&b, "Mix: %s\n\n", strings.Join(parts, ", "))

	fmt.Fprintf(&b, "%-26s %8s %8s %8s %10s %10s %10s %9s %9s\n",
		"Policy", "Devices", "Infeas", "Failed", "E_p50(J)", "E_p95(J)", "E_p99(J)", "Miss%", "Wdog%")
	for _, r := range p.Rows {
		fmt.Fprintf(&b, "%-26s %8d %8d %8d %10.4f %10.4f %10.4f %8.2f%% %8.2f%%\n",
			r.Policy, r.Devices, r.Infeasible, r.Failed,
			r.EnergyP50, r.EnergyP95, r.EnergyP99,
			100*r.MissRate, 100*r.WatchdogFraction)
	}

	if len(p.Skipped) > 0 {
		fmt.Fprintf(&b, "\nInfeasible pairings (estimated util > %.2f):\n", p.Spec.maxUtil())
		for _, s := range p.Skipped {
			min := "none"
			if s.MinMHz > 0 {
				min = fmt.Sprintf("%.1f MHz", s.MinMHz)
			}
			fmt.Fprintf(&b, "  %-10s x %-26s %6d devices  util %.3f  min feasible %s\n",
				s.Workload, s.Policy, s.Count, s.EstUtil, min)
		}
	}
	return b.String()
}
