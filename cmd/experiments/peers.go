package main

// Peer execution: -peers runs the Table 2 grid — or, with -only fleet,
// the population-scale fleet experiment — through the fabric coordinator
// from this process: shards leased across the listed sweepd daemons,
// stolen from stragglers near the tail, and executed locally when every
// peer is unreachable. The merge is byte-identical to a local Sweep, so
// the peers are purely a throughput decision, and one daemon in the list
// is the plain remote run; 100k+ device populations are the -only fleet
// -peers sweet spot.

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"clocksched"
	"clocksched/internal/expt"
	"clocksched/internal/fabric"
	"clocksched/internal/fleet"
)

// splitPeers parses the comma-separated -peers list, dropping empties.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runPeers coordinates the Table 2 grid, or with -only fleet the standing
// fleet experiment, across the peers. The fleet's spec is the one the
// local `-only fleet` path builds (ExperimentSpec + ExperimentDevices),
// compiled to cells once, so the two summaries are byte-comparable. Fabric
// state (lease ledger, committed shards) lives under <out>/fabric, so an
// interrupted run resumes from its committed shards on the next
// invocation.
func runPeers(o options) int {
	if o.only != "" && o.only != "table2" && o.only != "fleet" {
		fmt.Fprintf(os.Stderr, "experiments: -peers runs table2 or fleet; %q is local-only (drop -peers)\n", o.only)
		return 2
	}
	peers := splitPeers(o.peers)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		cfg  clocksched.SweepConfig
		plan *fleet.Plan
		err  error
	)
	if o.only == "fleet" {
		var spec fleet.Spec
		if spec, err = fleet.ExperimentSpec(o.seed, fleet.ExperimentDevices()); err == nil {
			plan, err = spec.Compile()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: fleet:", err)
			return 1
		}
		cfg.Cells = plan.Cells
		fmt.Printf("==> fleet (fleet of %d peer(s)) — %d devices\n", len(peers), spec.Devices)
	} else {
		if cfg, err = clocksched.Table2Config(o.seed, expt.Table2Runs); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Printf("==> table2 (fleet of %d peer(s)) — %d cells\n", len(peers), clocksched.NewSweepSpec(cfg).NumCells())
	}
	// The per-cell resilience settings travel in the shard spec, so every
	// peer (and the local fallback) applies them.
	cfg.CellTimeout, cfg.Retries = o.cellTimeout, o.retries

	co, err := fabric.New(fabric.Config{
		Peers:        peers,
		Token:        o.peerToken,
		Dir:          filepath.Join(o.outDir, "fabric"),
		LocalWorkers: o.workers,
		Seed:         o.seed,
		Progress:     progressLine(o.progress),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: fabric:", err)
		return 1
	}
	res, err := co.Run(ctx, clocksched.NewSweepSpec(cfg))
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: fleet run:", err)
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "experiments: interrupted; committed shards are ledgered — run again to resume")
		}
		return 1
	}
	if res.Telemetry.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: fleet replayed %d cell(s) from the shard ledger\n", res.Telemetry.Replayed)
	}

	if plan != nil {
		pop, err := fleet.Reduce(plan, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: fleet:", err)
			return 1
		}
		return writeArtifact(o.outDir, "fleet_fleet.txt", pop.Render())
	}
	rows, err := foldTable2(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: fleet table2:", err)
		return 1
	}
	return writeArtifact(o.outDir, "table2_fleet.txt", expt.RenderTable2(rows))
}

// foldTable2 reduces a clocksched.Table2Config sweep result to the paper's
// Table 2 rows through the local table's own fold.
func foldTable2(res *clocksched.SweepResult) ([]expt.Table2Row, error) {
	cells := make([]expt.Cell, len(res.Cells))
	for i, c := range res.Cells {
		if c.Err != nil || c.Result == nil {
			return nil, fmt.Errorf("cell %d failed: %v", i, c.Err)
		}
		cells[i] = expt.Cell{EnergyJ: c.Result.EnergyJoules, Misses: c.Result.Misses, SpeedChanges: c.Result.ClockChanges}
	}
	return expt.FoldTable2(cells)
}

// writeArtifact prints a rendered summary and writes it to <outDir>/<name>,
// returning the process exit code.
func writeArtifact(outDir, name, summary string) int {
	fmt.Print(summary)
	artifact := filepath.Join(outDir, name)
	if err := os.WriteFile(artifact, []byte(summary), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	fmt.Printf("\nartifact written to %s\n", artifact)
	return 0
}
