// Command experiments regenerates every table and figure of the paper's
// evaluation — plus the extension experiments — from the simulation,
// printing each summary to stdout and writing the raw artifacts under -out.
//
// Grid-backed experiments fan their cells across -workers goroutines and
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
//	experiments -peers http://node1:8900,http://node2:8900   # fabric-coordinated table2
//	experiments -only fleet                                  # 10k-device population sweep
//	experiments -only fleet -peers http://node1:8900,http://node2:8900
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
	"clocksched/internal/fleet"
	"clocksched/internal/sweep"
	"clocksched/internal/telemetry"
)

func main() {
	var (
		outDir  = flag.String("out", "results", "directory for raw artifact files")
		only    = flag.String("only", "", "run only the named experiment (see -list)")
		list    = flag.Bool("list", false, "list the available experiments and exit")
		seed    = flag.Uint64("seed", 1, "workload jitter seed")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers for grid experiments")
		nocache = flag.Bool("nocache", false, "skip the on-disk cell cache under <out>/cache")
		resume  = flag.Bool("resume", false,
			"resume an interrupted run: replay cells committed to <out>/sweep.wal from the cache")
		cellTimeout = flag.Duration("cell-timeout", 0,
			"wall-clock budget per grid cell attempt (0 disables)")
		retries = flag.Int("retries", 0,
			"retry budget per grid cell for transient failures, with seeded exponential backoff")
		telAddr = flag.String("telemetry", "",
			"serve live telemetry on this address (e.g. :8080): /metrics, /metrics.json, /debug/vars, /debug/pprof")
		progress = flag.Bool("progress", false,
			"print per-cell completion counts for grid experiments; resumed runs start at the replayed count")
		remote = flag.String("remote", "",
			"submit grid work to a sweepd daemon at this base URL (e.g. http://localhost:8900) instead of simulating locally")
		peers = flag.String("peers", "",
			"comma-separated sweepd base URLs: coordinate the grid across these peers via the fabric (shards, leases, work-stealing)")
		peerToken = flag.String("peer-token", "", "bearer token sent to every -peers daemon")
	)
	flag.Parse()

	if *list {
		for _, e := range catalogue() {
			fmt.Printf("%-12s %s\n", e.Name, e.Paper)
		}
		return
	}

	// run holds the defers (telemetry drain, signal stop) so they fire on
	// every exit path, including an interrupt; os.Exit would skip them.
	os.Exit(run(outDir, only, seed, workers, nocache, resume, cellTimeout, retries, telAddr, progress, remote, peers, peerToken))
}

// catalogue lists every experiment in run order: expt.Registry's paper and
// extension entries, then the two that need layers above expt — the zoo
// (the policy registry) and the fleet (the population engine).
func catalogue() []expt.Experiment {
	return append(expt.Registry(), expt.ZooExperiment(clocksched.PolicyZoo()), fleet.Experiment())
}

func run(outDir, only *string, seed *uint64, workers *int, nocache, resume *bool,
	cellTimeout *time.Duration, retries *int, telAddr *string, progress *bool, remote, peers, peerToken *string) int {

	if *remote != "" && *peers != "" {
		fmt.Fprintln(os.Stderr, "experiments: -remote and -peers are mutually exclusive (one daemon vs a coordinated fleet)")
		return 2
	}
	if *remote != "" {
		return runRemote(*remote, *outDir, *only, *seed, *progress)
	}
	if *peers != "" {
		return runPeers(*peers, *peerToken, *outDir, *only, *seed, *progress)
	}

	experiments := catalogue()
	if *only != "" {
		e, ok := expt.Find(experiments, strings.ToLower(*only))
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", *only)
			return 2
		}
		experiments = []expt.Experiment{e}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := expt.Env{
		Ctx:         ctx,
		Seed:        *seed,
		Workers:     *workers,
		CellTimeout: *cellTimeout,
		Retries:     *retries,
	}
	if *progress {
		env.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "experiments: cell %d/%d\n", done, total)
		}
	}
	if *telAddr != "" {
		reg := telemetry.New()
		srv, err := telemetry.Serve(*telAddr, reg)
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
	if !*nocache {
		// One cell store for the whole run: every grid experiment and the
		// fleet share the cache and the journal, under disjoint keys. Each
		// completed cell is committed to the journal; relaunching with
		// -resume replays them from the cache instead of re-simulating. The
		// journal is truncated (or recovered) once here; each grid then
		// reopens it with resume.
		cache, err := clocksched.NewSweepCache(0, filepath.Join(*outDir, "cache"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: cache:", err)
			return 1
		}
		env.Cache = cache
		env.Journal = filepath.Join(*outDir, "sweep.wal")
		jr, err := sweep.OpenCellJournal(env.Journal, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: journal:", err)
			return 1
		}
		if *resume {
			fmt.Fprintf(os.Stderr, "experiments: resume: %d cell(s) recovered from journal\n", jr.Recovered())
		}
		if err := jr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: journal:", err)
			return 1
		}
	} else if *resume {
		fmt.Fprintln(os.Stderr, "experiments: -resume needs the cell cache (drop -nocache)")
		return 2
	}

	var written []string
	for _, e := range experiments {
		fmt.Printf("==> %s — %s\n", e.Name, e.Paper)
		summary, artifacts, err := e.Run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
			if ctx.Err() != nil && !*nocache {
				fmt.Fprintln(os.Stderr, "experiments: interrupted; completed cells are journaled — run again with -resume")
			}
			return 1
		}
		fmt.Print(summary)
		for _, a := range artifacts {
			if err := os.WriteFile(filepath.Join(*outDir, a.Name), []byte(a.Content), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			written = append(written, a.Name)
		}
		fmt.Println()
	}

	// Leave a browsable index behind when running the full suite.
	if *only == "" && len(written) > 0 {
		index := expt.IndexHTML(written)
		if err := os.WriteFile(filepath.Join(*outDir, "index.html"), []byte(index), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Printf("index written to %s\n", filepath.Join(*outDir, "index.html"))
	}
	return 0
}
