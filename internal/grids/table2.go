package grids

import (
	"fmt"
	"time"

	"clocksched"
	"clocksched/internal/battery"
	"clocksched/internal/expt"
	"clocksched/internal/sim"
	"clocksched/internal/stats"
)

// FoldTable2 reduces a clocksched.Table2Config sweep over expt.Table2Runs
// seeds to the table's rows: per configuration, a 95% CI over per-run
// energy, total deadline misses, and the mean clock-change count.
func FoldTable2(res *clocksched.SweepResult) ([]expt.Table2Row, error) {
	if want := len(expt.Table2Algorithms) * expt.Table2Runs; len(res.Cells) != want {
		return nil, fmt.Errorf("table 2: %d cells, want %d", len(res.Cells), want)
	}
	rows := make([]expt.Table2Row, 0, len(expt.Table2Algorithms))
	for ci, name := range expt.Table2Algorithms {
		energies := make([]float64, 0, expt.Table2Runs)
		misses, changes := 0, 0
		for _, c := range res.Cells[ci*expt.Table2Runs : (ci+1)*expt.Table2Runs] {
			energies = append(energies, c.Result.EnergyJoules)
			misses += c.Result.Misses
			changes += c.Result.ClockChanges
		}
		ci95, err := stats.CI95(energies)
		if err != nil {
			return nil, err
		}
		rows = append(rows, expt.Table2Row{
			Algorithm:    name,
			Energy:       ci95,
			Misses:       misses,
			SpeedChanges: float64(changes) / expt.Table2Runs,
		})
	}
	return rows, nil
}

var table2 = Experiment{Name: "table2", Paper: "Table 2: energy of the best algorithms", Plan: func(seed uint64) (clocksched.SweepConfig, Fold, error) {
	cfg, err := clocksched.Table2Config(seed, expt.Table2Runs)
	return cfg, func(res *clocksched.SweepResult, _ *clocksched.Telemetry) (string, []expt.Artifact, error) {
		rows, err := FoldTable2(res)
		if err != nil {
			return "", nil, err
		}
		return textArtifact("table2.txt", expt.RenderTable2(rows))
	}, err
}}

// PlaybackConfig is the playback sweep: 30 s of MPEG under each Table 2
// configuration, at the run seed alone.
func PlaybackConfig(seed uint64) (clocksched.SweepConfig, error) {
	cfg, err := clocksched.Table2Config(seed, 1)
	cfg.Duration = 30 * time.Second
	return cfg, err
}

// PlaybackLifetime folds a PlaybackConfig sweep with the battery model: how
// many hours of MPEG a pair of AAA cells buys at each configuration's
// measured average playback power. The heavy-load Peukert exponent (2.0,
// see expt.MartinOptimum) applies because playback draws two orders of
// magnitude more than idle.
func PlaybackLifetime(res *clocksched.SweepResult) ([]expt.PlaybackRow, error) {
	cell, err := battery.NewPeukert(3.0, 2.0, 0.05, sim.FromSeconds(1.1/0.05*3600))
	if err != nil {
		return nil, err
	}
	out := make([]expt.PlaybackRow, 0, len(res.Cells))
	for i, c := range res.Cells {
		life, err := cell.Lifetime(c.Result.AvgPowerWatts)
		if err != nil {
			return nil, err
		}
		out = append(out, expt.PlaybackRow{
			Policy:    expt.Table2Algorithms[i],
			AvgPowerW: c.Result.AvgPowerWatts,
			Hours:     life.Seconds() / 3600,
		})
	}
	return out, nil
}

var playback = Experiment{Name: "playback", Paper: "battery-coupled playback endurance", Plan: func(seed uint64) (clocksched.SweepConfig, Fold, error) {
	cfg, err := PlaybackConfig(seed)
	return cfg, func(res *clocksched.SweepResult, _ *clocksched.Telemetry) (string, []expt.Artifact, error) {
		rows, err := PlaybackLifetime(res)
		if err != nil {
			return "", nil, err
		}
		return textArtifact("playback.txt", expt.RenderPlaybackLifetime(rows))
	}, err
}}
