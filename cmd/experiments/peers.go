package main

// Peer execution: -peers runs one sweep-shaped experiment — Table 2 unless
// -only names another — through the fabric coordinator from this process:
// shards leased across the listed sweepd daemons, stolen from stragglers
// near the tail, and executed locally when every peer is unreachable. The
// merge is byte-identical to a local Sweep, so the peers are purely a
// throughput decision, and one daemon in the list is the plain remote run;
// 100k+ device populations are the -only fleet -peers sweet spot.

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"clocksched"
	"clocksched/internal/fabric"
	"clocksched/internal/grids"
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

// runPeers coordinates the named sweep-shaped experiment (table2 by
// default) across the peers: the experiment's own plan — the cells a local
// run sweeps, built from -seed — then its own fold, so the artifacts are
// byte-comparable with the local run's. Each artifact is written as
// <stem>_fleet<ext>. Fabric state (lease ledger, committed shards) lives
// under <out>/fabric, so an interrupted run resumes from its committed
// shards on the next invocation.
func runPeers(o options) int {
	name := strings.ToLower(o.only)
	if name == "" {
		name = "table2"
	}
	e, ok := grids.Find(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: -peers runs a sweep-shaped experiment; %q is not one (drop -peers)\n", o.only)
		return 2
	}
	peers := splitPeers(o.peers)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg, fold, err := e.Plan(o.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
		return 1
	}
	res := &clocksched.SweepResult{}
	if grids.Empty(cfg) {
		fmt.Printf("==> %s (fleet of %d peer(s)) — no cells\n", e.Name, len(peers))
	} else {
		fmt.Printf("==> %s (fleet of %d peer(s)) — %d cells\n", e.Name, len(peers), cfg.GridSize())
		// The per-cell resilience settings travel in the shard spec, so
		// every peer (and the local fallback) applies them.
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
		if res, err = co.Run(ctx, clocksched.NewSweepSpec(cfg)); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: fleet run:", err)
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "experiments: interrupted; committed shards are ledgered — run again to resume")
			}
			return 1
		}
		if res.Telemetry.Replayed > 0 {
			fmt.Fprintf(os.Stderr, "experiments: fleet replayed %d cell(s) from the shard ledger\n", res.Telemetry.Replayed)
		}
	}

	summary, artifacts, err := fold(res, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
		return 1
	}
	fmt.Print(summary)
	for _, a := range artifacts {
		ext := filepath.Ext(a.Name)
		path := filepath.Join(o.outDir, strings.TrimSuffix(a.Name, ext)+"_fleet"+ext)
		if err := os.WriteFile(path, []byte(a.Content), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Printf("\nartifact written to %s\n", path)
	}
	return 0
}
