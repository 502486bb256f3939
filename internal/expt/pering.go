package expt

import (
	"context"
	"fmt"
	"strings"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
	"clocksched/internal/workload"
)

// This file reproduces the methodological comparison of Section 3: Pering
// et al. "assume that frames of an MPEG video can be dropped and present
// results which combine energy savings vs. frame rates", whereas the paper
// insists on inelastic constraints. PeringTradeoff runs the drop-tolerant
// player across the clock steps and reports the two-dimensional metric the
// paper chose not to adopt — making the contrast measurable.

// PeringRow is one constant clock setting under the drop-tolerant player.
type PeringRow struct {
	Step    cpu.Step
	EnergyJ float64
	// FrameRate is the achieved display rate in frames/s (15 nominal).
	FrameRate float64
	// DropRate is the fraction of frames skipped.
	DropRate float64
}

// PeringTradeoff runs the drop-tolerant player ("mpeg-drop") over a 30 s
// clip at each clock step, slowest first.
func PeringTradeoff(ctx context.Context, seed uint64) ([]PeringRow, error) {
	const length = 30 * sim.Second
	totalFrames := int(length.Seconds()) * workload.DefaultMPEGConfig().FPS
	rows := make([]PeringRow, 0, cpu.NumSteps)
	for s := cpu.MinStep; s <= cpu.MaxStep; s++ {
		out, err := RunContext(ctx, RunSpec{Workload: "mpeg-drop", Seed: seed, Duration: length, InitialStep: s, Stream: true})
		if err != nil {
			return nil, err
		}
		m, ok := out.Workload.(*workload.MPEG)
		if !ok {
			return nil, fmt.Errorf("pering: workload is %T, not the MPEG player", out.Workload)
		}
		dropped := m.DroppedFrames()
		rows = append(rows, PeringRow{
			Step:      s,
			EnergyJ:   out.DAQ.EnergyJ,
			FrameRate: float64(totalFrames-dropped) / length.Seconds(),
			DropRate:  float64(dropped) / float64(totalFrames),
		})
		out.Release()
	}
	return rows, nil
}

// RenderPeringTradeoff prints the sweep.
func RenderPeringTradeoff(rows []PeringRow) string {
	var b strings.Builder
	b.WriteString("Section 3 contrast: energy vs frame rate under Pering's elastic assumption (MPEG, 30s)\n")
	fmt.Fprintf(&b, "%-10s %10s %12s %10s\n", "Clock", "energy(J)", "frames/s", "dropped")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.2f %12.1f %9.1f%%\n",
			r.Step, r.EnergyJ, r.FrameRate, r.DropRate*100)
	}
	b.WriteString("(the paper rejects this two-dimensional metric; its own runs treat every frame as mandatory)\n")
	return b.String()
}

// PlaybackRow is one policy's MPEG playback endurance on batteries.
type PlaybackRow struct {
	Policy string
	// AvgPowerW is the measured average system power during playback.
	AvgPowerW float64
	// Hours is how long a pair of AAA alkaline cells sustains it.
	Hours float64
}

// RenderPlaybackLifetime prints the endurance table.
func RenderPlaybackLifetime(rows []PlaybackRow) string {
	var b strings.Builder
	b.WriteString("MPEG playback endurance on 2×AAA alkaline (Peukert k=2.0)\n")
	fmt.Fprintf(&b, "%-78s %9s %8s\n", "Policy", "power(W)", "hours")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-78s %9.3f %8.2f\n", r.Policy, r.AvgPowerW, r.Hours)
	}
	return b.String()
}
