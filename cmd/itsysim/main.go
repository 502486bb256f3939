// Command itsysim runs one workload on the simulated Itsy under one clock
// scheduling policy and prints a measurement report: energy, deadline
// behaviour, clock-setting stability, and residency.
//
// Usage:
//
//	itsysim -workload mpeg -policy past-peg-peg:93:98 -duration 60s
//	itsysim -workload editor -policy constant:132.7
//	itsysim -workload chess -policy avg9-one-one:50:70 -seed 3
//	itsysim -workload mpeg -policy past-peg-peg:93:98 -runs 10 -workers 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clocksched"
)

func main() {
	var (
		workloadName = flag.String("workload", "mpeg", "workload: mpeg, web, chess, editor, rect")
		policySpec   = flag.String("policy", "constant:206.4",
			"policy: constant:<MHz>[:lowv] or <pred>-<up>-<down>:<lo>:<hi>[:vs] "+
				"where pred is past or avgN, setters are one/double/peg")
		seed     = flag.Uint64("seed", 1, "workload jitter seed (first seed with -runs)")
		runs     = flag.Int("runs", 1, "repeated runs over consecutive seeds, swept in parallel")
		workers  = flag.Int("workers", 0, "parallel workers for -runs > 1 (0 = GOMAXPROCS)")
		duration = flag.Duration("duration", 0, "run length (0 = workload's natural length)")
		trace    = flag.Bool("trace", false, "dump the per-quantum utilization/frequency trace")
		faults   = flag.String("faults", "",
			"fault injection plan: comma-separated key=value pairs among "+
				"clockfail, stall, drop, glitch, jitter, tracedrop, tracedelay, abort "+
				"(probabilities in [0,1]), e.g. clockfail=0.01,jitter=0.05")
		watchdog = flag.Bool("watchdog", false,
			"wrap the policy in the supervisory watchdog governor")
		telemetryAddr = flag.String("telemetry", "",
			"serve live telemetry on this address (e.g. :8080): /metrics, /metrics.json, /debug/vars, /debug/pprof")
	)
	flag.Parse()

	pol, err := parsePolicy(*policySpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "itsysim:", err)
		os.Exit(2)
	}
	plan, err := parseFaults(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "itsysim:", err)
		os.Exit(2)
	}
	var wd *clocksched.WatchdogConfig
	if *watchdog {
		wd = &clocksched.WatchdogConfig{}
	}

	// run holds the telemetry-drain defer so it fires on every exit path,
	// including an interrupted simulation; os.Exit would skip it.
	os.Exit(run(pol, plan, wd, *workloadName, *seed, *runs, *workers,
		*duration, *trace, *telemetryAddr))
}

func run(pol clocksched.Policy, plan *clocksched.FaultPlan, wd *clocksched.WatchdogConfig,
	workloadName string, seed uint64, runs, workers int,
	duration time.Duration, trace bool, telemetryAddr string) int {

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tel *clocksched.Telemetry
	if telemetryAddr != "" {
		tel = clocksched.NewTelemetry()
		addr, err := tel.Serve(telemetryAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "itsysim:", err)
			return 2
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			tel.Shutdown(sctx)
		}()
		fmt.Fprintf(os.Stderr, "itsysim: telemetry on http://%s/metrics\n", addr)
	}

	if runs > 1 {
		return runBatch(ctx, pol, workloadName, seed, runs, workers, duration, plan, wd, tel)
	}

	res, err := clocksched.RunContext(ctx, clocksched.Config{
		Workload:     clocksched.Workload(workloadName),
		Policy:       pol,
		Seed:         seed,
		Duration:     duration,
		CaptureTrace: trace,
		Faults:       plan,
		Watchdog:     wd,
		Telemetry:    tel,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "itsysim:", err)
		return 1
	}

	fmt.Printf("workload:        %s (seed %d)\n", workloadName, seed)
	fmt.Printf("policy:          %s\n", pol.Name())
	fmt.Printf("energy:          %.2f J\n", res.EnergyJoules)
	fmt.Printf("average power:   %.3f W (peak %.3f W)\n", res.AvgPowerWatts, res.PeakPowerWatts)
	fmt.Printf("utilization:     %.1f%%\n", res.MeanUtilization*100)
	fmt.Printf("deadlines:       %d, missed %d (max lateness %v)\n",
		res.Deadlines, res.Misses, res.MaxLateness)
	fmt.Printf("clock changes:   %d (stall %v), voltage changes: %d\n",
		res.ClockChanges, res.StallTime, res.VoltageChanges)
	if f := res.Faults; f != nil {
		fmt.Printf("faults injected: %d (clock fails %d, stalls %d/+%v, samples %d dropped/%d glitched,\n"+
			"                 timer jitter %d/+%v, trace %d dropped/%d delayed)\n",
			f.Total, f.ClockChangeFails, f.SettleStalls, f.ExtraStallTime.Round(time.Microsecond),
			f.SamplesDropped, f.SamplesGlitched,
			f.TimerJitters, f.TimerJitterTime.Round(time.Microsecond),
			f.TraceDrops, f.TraceDelays)
	}
	if w := res.Watchdog; w != nil {
		state := "healthy"
		if w.InSafeMode {
			state = "ended in safe mode"
		}
		fmt.Printf("watchdog:        %d trips (oscillation %d, pegging %d, miss streaks %d), %s\n",
			w.Trips, w.OscillationTrips, w.PeggingTrips, w.MissStreakTrips, state)
	}

	fmt.Println("residency:")
	mhzs := make([]float64, 0, len(res.TimeAtMHz))
	for mhz := range res.TimeAtMHz {
		mhzs = append(mhzs, mhz)
	}
	sort.Float64s(mhzs)
	for _, mhz := range mhzs {
		fmt.Printf("  %6.1f MHz  %v\n", mhz, res.TimeAtMHz[mhz].Round(time.Millisecond))
	}

	if trace {
		fmt.Println("trace (time, utilization, MHz):")
		for p := range res.TraceSeq() {
			fmt.Printf("%v\t%.4f\t%.1f\n", p.At, p.Utilization, p.MHz)
		}
	}
	return 0
}

// runBatch sweeps the same configuration over consecutive seeds and prints
// one row per run plus the aggregate.
func runBatch(ctx context.Context, pol clocksched.Policy, workload string,
	firstSeed uint64, runs, workers int, duration time.Duration,
	plan *clocksched.FaultPlan, wd *clocksched.WatchdogConfig,
	tel *clocksched.Telemetry) int {
	seeds := make([]uint64, runs)
	for i := range seeds {
		seeds[i] = firstSeed + uint64(i)
	}
	sweep, err := clocksched.Sweep(ctx, clocksched.SweepConfig{
		Workloads: []clocksched.Workload{clocksched.Workload(workload)},
		Policies:  []clocksched.Policy{pol},
		Seeds:     seeds,
		Duration:  duration,
		Faults:    plan,
		Watchdog:  wd,
		Workers:   workers,
		FailFast:  true,
		Telemetry: tel,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "itsysim:", err)
		return 1
	}
	fmt.Printf("workload: %s, policy: %s, %d runs (seeds %d..%d)\n",
		workload, pol.Name(), runs, firstSeed, seeds[len(seeds)-1])
	fmt.Printf("%-6s %10s %10s %8s %8s %9s\n", "seed", "energy(J)", "power(W)", "util%", "misses", "changes")
	for i, cell := range sweep.Cells {
		r := cell.Result
		fmt.Printf("%-6d %10.2f %10.3f %8.1f %8d %9d\n",
			seeds[i], r.EnergyJoules, r.AvgPowerWatts, r.MeanUtilization*100,
			r.Misses, r.ClockChanges)
	}
	st := sweep.Stats()
	fmt.Printf("energy: min %.2f J, mean %.2f J, max %.2f J; total misses %d\n",
		st.MinEnergyJoules, st.MeanEnergyJoules, st.MaxEnergyJoules, st.TotalMisses)
	pt := sweep.Telemetry
	fmt.Printf("pool: %d workers (peak busy %d); cells run %d, cached %d, failed %d\n",
		pt.Workers, pt.PeakBusy, pt.Ran, pt.Cached, pt.Failed)
	return 0
}

// parsePolicy understands "constant:<MHz>[:lowv]",
// "<pred>-<up>-<down>:<lo>:<hi>[:vs]", "deadline[:vs]", and
// "prop-<pred>:<target>[:vs]".
func parsePolicy(spec string) (clocksched.Policy, error) {
	parts := strings.Split(spec, ":")
	if parts[0] == "deadline" {
		switch {
		case len(parts) == 1:
			return clocksched.Policy{Deadline: true}, nil
		case len(parts) == 2 && parts[1] == "vs":
			return clocksched.Policy{Deadline: true, VoltageScale: true}, nil
		default:
			return clocksched.Policy{}, fmt.Errorf("deadline policy wants deadline[:vs], got %q", spec)
		}
	}
	if strings.HasPrefix(parts[0], "prop-") {
		if len(parts) < 2 || len(parts) > 3 {
			return clocksched.Policy{}, fmt.Errorf("proportional policy wants prop-<pred>:<target>[:vs], got %q", spec)
		}
		n, err := parsePredictor(strings.TrimPrefix(parts[0], "prop-"))
		if err != nil {
			return clocksched.Policy{}, err
		}
		target, err := strconv.Atoi(parts[1])
		if err != nil {
			return clocksched.Policy{}, fmt.Errorf("bad target %q", parts[1])
		}
		p := clocksched.Policy{Proportional: true, AvgN: n, TargetPercent: target}
		if len(parts) == 3 {
			if parts[2] != "vs" {
				return clocksched.Policy{}, fmt.Errorf("unknown option %q", parts[2])
			}
			p.VoltageScale = true
		}
		return p, nil
	}
	if parts[0] == "constant" {
		if len(parts) < 2 || len(parts) > 3 {
			return clocksched.Policy{}, fmt.Errorf("constant policy wants constant:<MHz>[:lowv], got %q", spec)
		}
		mhz, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return clocksched.Policy{}, fmt.Errorf("bad frequency %q: %v", parts[1], err)
		}
		lowV := false
		if len(parts) == 3 {
			if parts[2] != "lowv" {
				return clocksched.Policy{}, fmt.Errorf("unknown constant option %q", parts[2])
			}
			lowV = true
		}
		return clocksched.Policy{Constant: true, MHz: mhz, LowVoltage: lowV}, nil
	}

	if len(parts) < 3 || len(parts) > 4 {
		return clocksched.Policy{}, fmt.Errorf("interval policy wants <pred>-<up>-<down>:<lo>:<hi>[:vs], got %q", spec)
	}
	names := strings.Split(parts[0], "-")
	if len(names) != 3 {
		return clocksched.Policy{}, fmt.Errorf("want <pred>-<up>-<down>, got %q", parts[0])
	}
	n, err := parsePredictor(names[0])
	if err != nil {
		return clocksched.Policy{}, err
	}
	lo, err := strconv.Atoi(parts[1])
	if err != nil {
		return clocksched.Policy{}, fmt.Errorf("bad lower bound %q", parts[1])
	}
	hi, err := strconv.Atoi(parts[2])
	if err != nil {
		return clocksched.Policy{}, fmt.Errorf("bad upper bound %q", parts[2])
	}
	vs := false
	if len(parts) == 4 {
		if parts[3] != "vs" {
			return clocksched.Policy{}, fmt.Errorf("unknown option %q", parts[3])
		}
		vs = true
	}
	return clocksched.Policy{
		AvgN: n,
		Up:   clocksched.SpeedSetter(names[1]), Down: clocksched.SpeedSetter(names[2]),
		LoPercent: lo, HiPercent: hi,
		VoltageScale: vs,
	}, nil
}

// parseFaults builds a fault plan from "key=prob,key=prob" pairs; an empty
// spec means no injection.
func parseFaults(spec string) (*clocksched.FaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	plan := &clocksched.FaultPlan{}
	for _, pair := range strings.Split(spec, ",") {
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("fault spec wants key=prob, got %q", pair)
		}
		p, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("bad fault probability %q for %q", kv[1], kv[0])
		}
		switch kv[0] {
		case "clockfail":
			plan.ClockChangeFailProb = p
		case "stall":
			plan.SettleStallProb = p
		case "drop":
			plan.SampleDropProb = p
		case "glitch":
			plan.SampleGlitchProb = p
		case "jitter":
			plan.TimerJitterProb = p
		case "tracedrop":
			plan.TraceDropProb = p
		case "tracedelay":
			plan.TraceDelayProb = p
		case "abort":
			plan.CellAbortProb = p
		default:
			return nil, fmt.Errorf("unknown fault kind %q", kv[0])
		}
	}
	return plan, nil
}

// parsePredictor maps "past" or "avgN" onto the AVG_N decay parameter.
func parsePredictor(name string) (int, error) {
	switch {
	case name == "past":
		return 0, nil
	case strings.HasPrefix(name, "avg"):
		v, err := strconv.Atoi(name[3:])
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bad predictor %q", name)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("unknown predictor %q", name)
	}
}
