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

// runPeers coordinates the Table 2 grid across the peers. Fabric state
// (lease ledger, committed shards) lives under <out>/fabric, so an
// interrupted run resumes from its committed shards on the next
// invocation.
func runPeers(peerList, token, outDir, only string, seed uint64, progress bool) int {
	if only == "fleet" {
		return runFleetPopulation(peerList, token, outDir, seed, progress)
	}
	if only != "" && only != "table2" {
		fmt.Fprintf(os.Stderr, "experiments: -peers runs table2 or fleet; %q is local-only (drop -peers)\n", only)
		return 2
	}
	peers := splitPeers(peerList)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := fabric.Config{
		Peers: peers,
		Token: token,
		Dir:   filepath.Join(outDir, "fabric"),
	}
	if progress {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "experiments: cell %d/%d\n", done, total)
		}
	}
	co, err := fabric.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: fabric:", err)
		return 1
	}

	t2, err := clocksched.Table2Config(seed, expt.Table2Runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	spec := clocksched.NewSweepSpec(t2)
	fmt.Printf("==> table2 (fleet of %d peer(s)) — %d cells\n", len(peers), spec.NumCells())
	res, err := co.Run(ctx, spec)
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

	rows, err := foldTable2(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: fleet table2:", err)
		return 1
	}
	return writeArtifact(outDir, "table2_fleet.txt", expt.RenderTable2(rows))
}

// runFleetPopulation coordinates the standing fleet experiment across the
// peer list: the identical spec the local `-only fleet` path builds
// (ExperimentSpec + ExperimentDevices), compiled to cells and fanned out
// through the fabric, so the two summaries are byte-comparable.
func runFleetPopulation(peerList, token, outDir string, seed uint64, progress bool) int {
	peers := splitPeers(peerList)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec, err := fleet.ExperimentSpec(seed, fleet.ExperimentDevices())
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: fleet:", err)
		return 1
	}
	rc := fleet.RunConfig{
		Peers:     peers,
		PeerToken: token,
		FabricDir: filepath.Join(outDir, "fabric"),
	}
	if progress {
		rc.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "experiments: cell %d/%d\n", done, total)
		}
	}
	fmt.Printf("==> fleet (fleet of %d peer(s)) — %d devices\n", len(peers), spec.Devices)
	pop, err := fleet.Run(ctx, spec, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: fleet run:", err)
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "experiments: interrupted; committed shards are ledgered — run again to resume")
		}
		return 1
	}
	return writeArtifact(outDir, "fleet_fleet.txt", pop.Render())
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
