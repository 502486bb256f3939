// Command experiments regenerates every table and figure of the paper's
// evaluation — plus the extension experiments — from the simulation,
// printing each summary to stdout and writing the raw artifacts under -out.
//
// Sweep-shaped experiments fan their cells across -workers goroutines and
// reuse cached cells from <out>/cache between invocations; the results are
// bit-identical whatever the worker count or cache state. Interrupting the
// run (Ctrl-C) stops the simulations at the next quantum boundary.
//
// Usage:
//
//	experiments            # everything, results into ./results
//	experiments -only table2
//	experiments -list
//	experiments -out /tmp/repro -seed 3 -workers 4
//	experiments -nocache   # recompute every cell
//	experiments -peers http://localhost:8900                 # table2 on one sweepd
//	experiments -peers http://node1:8900,http://node2:8900   # fabric-coordinated table2
//	experiments -only fleet                                  # 10k-device population sweep
//	experiments -only fleet -peers http://node1:8900,http://node2:8900
//	experiments -only zoo -peers http://node1:8900           # any sweep-shaped experiment
//
// The fleet experiment simulates a seeded population of device sessions
// (CLOCKSCHED_FLEET_DEVICES overrides the 10k default) and reduces them to
// per-policy energy percentiles, miss rates, and the infeasible bucket;
// with -peers the identical population is compiled once and fanned out
// across the daemons, byte-identical to the local run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"clocksched"
	"clocksched/internal/expt"
	"clocksched/internal/grids"
	"clocksched/internal/sweep"
	"clocksched/internal/telemetry"
)

// options holds the command-line flags.
type options struct {
	outDir, only     string
	list             bool
	seed             uint64
	workers          int
	nocache, resume  bool
	cellTimeout      time.Duration
	retries          int
	telAddr          string
	progress         bool
	peers, peerToken string
}

func main() {
	var o options
	flag.StringVar(&o.outDir, "out", "results", "directory for raw artifact files")
	flag.StringVar(&o.only, "only", "", "run only the named experiment (see -list)")
	flag.BoolVar(&o.list, "list", false, "list the available experiments and exit")
	flag.Uint64Var(&o.seed, "seed", 1, "workload jitter seed")
	flag.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "parallel simulation workers for grid experiments")
	flag.BoolVar(&o.nocache, "nocache", false, "skip the on-disk cell cache under <out>/cache")
	flag.BoolVar(&o.resume, "resume", false,
		"resume an interrupted run: replay cells committed to <out>/sweep.wal from the cache")
	flag.DurationVar(&o.cellTimeout, "cell-timeout", 0,
		"wall-clock budget per grid cell attempt (0 disables)")
	flag.IntVar(&o.retries, "retries", 0,
		"retry budget per grid cell for transient failures, with seeded exponential backoff")
	flag.StringVar(&o.telAddr, "telemetry", "",
		"serve live telemetry on this address (e.g. :8080): /metrics, /metrics.json, /debug/vars, /debug/pprof")
	flag.BoolVar(&o.progress, "progress", false,
		"print per-cell completion counts for grid experiments; resumed runs start at the replayed count")
	flag.StringVar(&o.peers, "peers", "",
		"comma-separated sweepd base URLs: coordinate the grid across these peers via the fabric (shards, leases, work-stealing)")
	flag.StringVar(&o.peerToken, "peer-token", "", "bearer token sent to every -peers daemon")
	flag.Parse()

	if o.list {
		for _, e := range catalogue() {
			fmt.Printf("%-12s %s\n", e.Name, e.Paper)
		}
		return
	}

	// run holds the defers (telemetry drain, signal stop) so they fire on
	// every exit path, including an interrupt; os.Exit would skip them.
	os.Exit(run(o))
}

// catalogue lists every experiment in run order: expt.Registry's entries
// and the sweep-shaped ones of internal/grids, each in its place.
func catalogue() []expt.Experiment { return grids.Catalogue() }

// progressLine prints per-cell completion counts when -progress is set;
// otherwise it is nil.
func progressLine(on bool) func(done, total int) {
	if !on {
		return nil
	}
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "experiments: cell %d/%d\n", done, total)
	}
}

func run(o options) int {
	if o.peers != "" {
		return runPeers(o)
	}

	experiments := catalogue()
	if o.only != "" {
		e, ok := expt.Find(experiments, strings.ToLower(o.only))
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", o.only)
			return 2
		}
		experiments = []expt.Experiment{e}
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := expt.Env{
		Ctx:         ctx,
		Seed:        o.seed,
		Workers:     o.workers,
		CellTimeout: o.cellTimeout,
		Retries:     o.retries,
		Progress:    progressLine(o.progress),
	}
	if o.telAddr != "" {
		reg := telemetry.New()
		srv, err := telemetry.Serve(o.telAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: telemetry:", err)
			return 1
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
		}()
		fmt.Fprintf(os.Stderr, "experiments: telemetry on http://%s/metrics\n", srv.Addr())
		env.Telemetry = reg
	}
	if !o.nocache {
		// One cell store for the whole run: every sweep-shaped experiment
		// shares the cache and the journal, keyed by cell configuration,
		// so equal cells (figures 3 and 4 share theirs) share an entry, as
		// do local and -peers runs. Each completed cell is committed to the
		// journal; relaunching with -resume replays them from the cache
		// instead of re-simulating. The journal is truncated (or recovered)
		// once here; each sweep then reopens it with resume.
		cache, err := clocksched.NewSweepCache(0, filepath.Join(o.outDir, "cache"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: cache:", err)
			return 1
		}
		env.Cache = cache
		env.Journal = filepath.Join(o.outDir, "sweep.wal")
		jr, err := sweep.OpenCellJournal(env.Journal, o.resume, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: journal:", err)
			return 1
		}
		if o.resume {
			fmt.Fprintf(os.Stderr, "experiments: resume: %d cell(s) recovered from journal\n", jr.Recovered())
		}
		if err := jr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: journal:", err)
			return 1
		}
	} else if o.resume {
		fmt.Fprintln(os.Stderr, "experiments: -resume needs the cell cache (drop -nocache)")
		return 2
	}

	var written []string
	for _, e := range experiments {
		fmt.Printf("==> %s — %s\n", e.Name, e.Paper)
		summary, artifacts, err := e.Run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
			if ctx.Err() != nil && !o.nocache {
				fmt.Fprintln(os.Stderr, "experiments: interrupted; completed cells are journaled — run again with -resume")
			}
			return 1
		}
		fmt.Print(summary)
		for _, a := range artifacts {
			if err := os.WriteFile(filepath.Join(o.outDir, a.Name), []byte(a.Content), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			written = append(written, a.Name)
		}
		fmt.Println()
	}

	// Leave a browsable index behind when running the full suite.
	if o.only == "" && len(written) > 0 {
		index := expt.IndexHTML(written)
		if err := os.WriteFile(filepath.Join(o.outDir, "index.html"), []byte(index), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Printf("index written to %s\n", filepath.Join(o.outDir, "index.html"))
	}
	return 0
}
