package main

// Remote execution: -remote hands the Table 2 measurement grid to a sweepd
// daemon instead of simulating locally. The daemon journals every cell, so
// a killed daemon resumes the job and the fetched result is byte-identical
// to an uninterrupted local Sweep over the same grid.

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"clocksched"
	"clocksched/internal/expt"
	"clocksched/internal/service"
)

// foldTable2 reduces a clocksched.Table2Config sweep result to the paper's
// Table 2 rows through the local table's own fold.
func foldTable2(res *clocksched.SweepResult) ([]expt.Table2Row, error) {
	cells := make([]expt.Cell, len(res.Cells))
	for i, c := range res.Cells {
		if c.Err != nil || c.Result == nil {
			return nil, fmt.Errorf("remote cell %d failed: %v", i, c.Err)
		}
		cells[i] = expt.Cell{EnergyJ: c.Result.EnergyJoules, Misses: c.Result.Misses, SpeedChanges: c.Result.ClockChanges}
	}
	return expt.FoldTable2(cells)
}

// runRemote submits the Table 2 grid to a sweepd daemon, follows the job's
// live progress, and renders the fetched result exactly as the local table
// experiment would. Only the table2 grid runs remotely; other experiments
// are trace- or closed-form-driven and stay local.
func runRemote(base, outDir, only string, seed uint64, progress bool) int {
	if only != "" && only != "table2" {
		fmt.Fprintf(os.Stderr, "experiments: -remote runs the table2 grid; %q is local-only (drop -remote)\n", only)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg, err := clocksched.Table2Config(seed, expt.Table2Runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	spec := clocksched.NewSweepSpec(cfg)
	client := &service.Client{Base: base}

	st, err := client.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: remote submit:", err)
		return 1
	}
	fmt.Printf("==> table2 (remote %s) — job %s, %d cells\n", base, st.ID, st.Total)

	lastDone := -1
	onProgress := func(done, total int) {
		if !progress || done == lastDone {
			return
		}
		lastDone = done
		fmt.Fprintf(os.Stderr, "experiments: cell %d/%d\n", done, total)
	}
	st, err = client.Wait(ctx, st.ID, onProgress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: remote wait:", err)
		return 1
	}
	switch st.State {
	case service.StateDone:
	case service.StateFailed:
		fmt.Fprintf(os.Stderr, "experiments: remote job %s failed: %s\n", st.ID, st.Error)
		return 1
	default:
		fmt.Fprintf(os.Stderr, "experiments: remote job %s ended %s\n", st.ID, st.State)
		return 1
	}
	if st.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: remote job %s replayed %d cell(s) from its journal\n", st.ID, st.Replayed)
	}

	res, err := client.Result(ctx, st.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: remote result:", err)
		return 1
	}
	rows, err := foldTable2(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: remote table2:", err)
		return 1
	}
	return writeArtifact(outDir, "table2_remote.txt", expt.RenderTable2(rows))
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
