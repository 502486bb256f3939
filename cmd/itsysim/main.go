// Command itsysim runs one workload on the simulated Itsy under one clock
// scheduling policy and prints a measurement report: energy, deadline
// behaviour, clock-setting stability, and residency.
//
// -policy names a registered policy in the registry's text form, name or
// name:key=value,... (see clocksched.ParsePolicyRef); unnamed parameters
// keep their defaults.
//
// Usage:
//
//	itsysim -workload mpeg -policy past-peg-peg -duration 60s
//	itsysim -workload editor -policy constant:mhz=132.7
//	itsysim -workload chess -policy pering-avg-n:down=0,n=9,up=0 -seed 3
//	itsysim -workload mpeg -policy oa:slack_quanta=5 -runs 10 -workers 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clocksched"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli parses args, runs the simulation and returns the exit status: 2 for
// a bad flag, policy or fault plan, 1 for a failed run.
func cli(args []string, stdout, stderr io.Writer) int {
	var workloads []string
	for _, w := range clocksched.Workloads() {
		workloads = append(workloads, string(w))
	}
	fs := flag.NewFlagSet("itsysim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "mpeg", "workload: "+strings.Join(workloads, ", "))
		policySpec   = fs.String("policy", "constant",
			"policy as name or name:key=value,... where name is one of "+
				strings.Join(clocksched.RegisteredPolicies(), ", "))
		seed     = fs.Uint64("seed", 1, "workload jitter seed (first seed with -runs)")
		runs     = fs.Int("runs", 1, "repeated runs over consecutive seeds, swept in parallel")
		workers  = fs.Int("workers", 0, "parallel workers for -runs > 1 (0 = GOMAXPROCS)")
		duration = fs.Duration("duration", 0, "run length (0 = workload's natural length)")
		trace    = fs.Bool("trace", false, "dump the per-quantum utilization/frequency trace")
		faults   = fs.String("faults", "",
			"fault injection plan: comma-separated key=value pairs among "+
				"clockfail, stall, drop, glitch, jitter, tracedrop, tracedelay, abort "+
				"(probabilities in [0,1]), e.g. clockfail=0.01,jitter=0.05")
		watchdog = fs.Bool("watchdog", false,
			"wrap the policy in the supervisory watchdog governor")
		telemetryAddr = fs.String("telemetry", "",
			"serve live telemetry on this address (e.g. :8080): /metrics, /metrics.json, /debug/vars, /debug/pprof")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ref, err := clocksched.ParsePolicyRef(*policySpec)
	var pol clocksched.Policy
	if err == nil {
		pol, err = ref.Build()
	}
	if err != nil {
		fmt.Fprintln(stderr, "itsysim:", err)
		return 2
	}
	plan, err := parseFaults(*faults)
	if err != nil {
		fmt.Fprintln(stderr, "itsysim:", err)
		return 2
	}
	var wd *clocksched.WatchdogConfig
	if *watchdog {
		wd = &clocksched.WatchdogConfig{}
	}

	// run holds the telemetry-drain defer so it fires on every exit path,
	// including an interrupted simulation, before main's os.Exit.
	return run(stdout, stderr, pol, plan, wd, *workloadName, *seed, *runs, *workers,
		*duration, *trace, *telemetryAddr)
}

func run(stdout, stderr io.Writer, pol clocksched.Policy, plan *clocksched.FaultPlan, wd *clocksched.WatchdogConfig,
	workloadName string, seed uint64, runs, workers int,
	duration time.Duration, trace bool, telemetryAddr string) int {

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tel *clocksched.Telemetry
	if telemetryAddr != "" {
		tel = clocksched.NewTelemetry()
		addr, err := tel.Serve(telemetryAddr)
		if err != nil {
			fmt.Fprintln(stderr, "itsysim:", err)
			return 2
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			tel.Shutdown(sctx)
		}()
		fmt.Fprintf(stderr, "itsysim: telemetry on http://%s/metrics\n", addr)
	}

	if runs > 1 {
		return runBatch(ctx, stdout, stderr, pol, workloadName, seed, runs, workers, duration, plan, wd, tel)
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
		fmt.Fprintln(stderr, "itsysim:", err)
		return 1
	}

	fmt.Fprintf(stdout, "workload:        %s (seed %d)\n", workloadName, seed)
	fmt.Fprintf(stdout, "policy:          %s\n", pol.Name())
	fmt.Fprintf(stdout, "energy:          %.2f J\n", res.EnergyJoules)
	fmt.Fprintf(stdout, "average power:   %.3f W (peak %.3f W)\n", res.AvgPowerWatts, res.PeakPowerWatts)
	fmt.Fprintf(stdout, "utilization:     %.1f%%\n", res.MeanUtilization*100)
	fmt.Fprintf(stdout, "deadlines:       %d, missed %d (max lateness %v)\n",
		res.Deadlines, res.Misses, res.MaxLateness)
	fmt.Fprintf(stdout, "clock changes:   %d (stall %v), voltage changes: %d\n",
		res.ClockChanges, res.StallTime, res.VoltageChanges)
	if f := res.Faults; f != nil {
		fmt.Fprintf(stdout, "faults injected: %d (clock fails %d, stalls %d/+%v, samples %d dropped/%d glitched,\n"+
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
		fmt.Fprintf(stdout, "watchdog:        %d trips (oscillation %d, pegging %d, miss streaks %d), %s\n",
			w.Trips, w.OscillationTrips, w.PeggingTrips, w.MissStreakTrips, state)
	}

	fmt.Fprintln(stdout, "residency:")
	mhzs := make([]float64, 0, len(res.TimeAtMHz))
	for mhz := range res.TimeAtMHz {
		mhzs = append(mhzs, mhz)
	}
	sort.Float64s(mhzs)
	for _, mhz := range mhzs {
		fmt.Fprintf(stdout, "  %6.1f MHz  %v\n", mhz, res.TimeAtMHz[mhz].Round(time.Millisecond))
	}

	if trace {
		fmt.Fprintln(stdout, "trace (time, utilization, MHz):")
		for p := range res.TraceSeq() {
			fmt.Fprintf(stdout, "%v\t%.4f\t%.1f\n", p.At, p.Utilization, p.MHz)
		}
	}
	return 0
}

// runBatch sweeps the same configuration over consecutive seeds and prints
// one row per run plus the aggregate.
func runBatch(ctx context.Context, stdout, stderr io.Writer, pol clocksched.Policy, workload string,
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
		fmt.Fprintln(stderr, "itsysim:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload: %s, policy: %s, %d runs (seeds %d..%d)\n",
		workload, pol.Name(), runs, firstSeed, seeds[len(seeds)-1])
	fmt.Fprintf(stdout, "%-6s %10s %10s %8s %8s %9s\n", "seed", "energy(J)", "power(W)", "util%", "misses", "changes")
	for i, cell := range sweep.Cells {
		r := cell.Result
		fmt.Fprintf(stdout, "%-6d %10.2f %10.3f %8.1f %8d %9d\n",
			seeds[i], r.EnergyJoules, r.AvgPowerWatts, r.MeanUtilization*100,
			r.Misses, r.ClockChanges)
	}
	st := sweep.Stats()
	fmt.Fprintf(stdout, "energy: min %.2f J, mean %.2f J, max %.2f J; total misses %d\n",
		st.MinEnergyJoules, st.MeanEnergyJoules, st.MaxEnergyJoules, st.TotalMisses)
	pt := sweep.Telemetry
	fmt.Fprintf(stdout, "pool: %d workers (peak busy %d); cells run %d, cached %d, failed %d\n",
		pt.Workers, pt.PeakBusy, pt.Ran, pt.Cached, pt.Failed)
	return 0
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
