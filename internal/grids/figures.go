package grids

import (
	"fmt"
	"time"

	"clocksched"
	"clocksched/internal/cpu"
	"clocksched/internal/expt"
	"clocksched/internal/plot"
	"clocksched/internal/sim"
)

// panelTitles are the display names the Figure 3 panels carry, by
// expt.FigureWorkloads name: the workloads' own names, which a Result does
// not hold.
var panelTitles = map[string]string{"mpeg": "MPEG", "web": "Web", "chess": "Chess", "editor": "TalkingEditor"}

// PanelConfig is the Figure 3/4 sweep: one 40 s cell per
// expt.FigureWorkloads workload at constant 206.4 MHz, its trace kept. The
// two figures share the cells, and so their cache entries: running both
// costs four simulations, not eight.
func PanelConfig(seed uint64) clocksched.SweepConfig {
	cfg := clocksched.SweepConfig{
		Seeds:        []uint64{seed},
		Duration:     40 * time.Second,
		CaptureTrace: true,
		FailFast:     true,
	}
	for _, w := range expt.FigureWorkloads {
		cfg.Workloads = append(cfg.Workloads, clocksched.Workload(w))
	}
	return cfg
}

// Figure3Panels folds a PanelConfig sweep into the four Figure 3 panels:
// per-10 ms-quantum utilization at 206.4 MHz, one panel per workload.
func Figure3Panels(res *clocksched.SweepResult) []expt.Series {
	out := make([]expt.Series, len(res.Cells))
	for i, c := range res.Cells {
		s := expt.Series{
			Name:   fmt.Sprintf("Figure 3: %s utilization, 10ms quanta, 206.4MHz", panelTitles[expt.FigureWorkloads[i]]),
			XLabel: "time (microseconds)",
			YLabel: "utilization",
		}
		for p := range c.Result.TraceSeq() {
			s.Points = append(s.Points, expt.Point{X: float64(p.At / time.Microsecond), Y: p.Utilization})
		}
		out[i] = s
	}
	return out
}

// Figure4Panels smooths the four Figure 3 panels with the 100 ms moving
// average (10 quanta) into the Figure 4 panels.
func Figure4Panels(res *clocksched.SweepResult) ([]expt.Series, error) {
	raws := Figure3Panels(res)
	out := make([]expt.Series, len(raws))
	for i, raw := range raws {
		var err error
		if out[i], err = expt.Figure4Series(expt.FigureWorkloads[i], raw); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// panelExperiment is Figure 3 or 4: the panel sweep, each panel written as
// <prefix>_<workload>.dat and .svg.
func panelExperiment(name, paper string, panels func(*clocksched.SweepResult) ([]expt.Series, error)) Experiment {
	return Experiment{Name: name, Paper: paper, Plan: func(seed uint64) (clocksched.SweepConfig, Fold, error) {
		return PanelConfig(seed), func(res *clocksched.SweepResult, _ *clocksched.Telemetry) (string, []expt.Artifact, error) {
			series, err := panels(res)
			if err != nil {
				return "", nil, err
			}
			summary := ""
			var arts []expt.Artifact
			for i, s := range series {
				w := expt.FigureWorkloads[i]
				summary += fmt.Sprintf("%-14s %s\n", w, s.Sparkline(72))
				arts = append(arts, expt.Artifact{Name: name + "_" + w + ".dat", Content: s.Render()})
				arts = append(arts, expt.SVGArtifact(name+"_"+w+".svg", s)...)
			}
			return summary, arts, nil
		}, nil
	}}
}

var (
	figure3 = panelExperiment("figure3", "Fig 3: utilization, 10ms quanta, 206.4MHz",
		func(res *clocksched.SweepResult) ([]expt.Series, error) { return Figure3Panels(res), nil })
	figure4 = panelExperiment("figure4", "Fig 4: utilization, 100ms moving average", Figure4Panels)
)

// Figure9Config is the Figure 9 sweep: 20 s of MPEG at each of the eleven
// clock steps, slowest first.
func Figure9Config(seed uint64) clocksched.SweepConfig {
	cfg := clocksched.SweepConfig{
		Workloads: []clocksched.Workload{clocksched.MPEG},
		Seeds:     []uint64{seed},
		Duration:  20 * time.Second,
		FailFast:  true,
	}
	for s := cpu.MinStep; s <= cpu.MaxStep; s++ {
		cfg.Policies = append(cfg.Policies, clocksched.Policy{Constant: true, MHz: s.MHz()})
	}
	return cfg
}

// Figure9 folds a Figure9Config sweep into utilization vs clock frequency,
// exposing the non-linear plateau between 162.2 and 176.9 MHz that the
// Table 3 memory timing causes.
func Figure9(res *clocksched.SweepResult) expt.Series {
	s := expt.Series{
		Name:   "Figure 9: MPEG processor utilization vs clock frequency",
		XLabel: "clock (MHz)",
		YLabel: "utilization (%)",
	}
	for i, c := range res.Cells {
		step := cpu.MinStep + cpu.Step(i)
		s.Points = append(s.Points, expt.Point{X: step.MHz(), Y: c.Result.MeanUtilization * 100})
	}
	return s
}

// figure9PaperPoints are utilization values read off the published Figure 9
// plot (approximate; the paper's x-axis runs 128–198 MHz). They exist only
// for the side-by-side comparison chart.
var figure9PaperPoints = []plot.Point{
	{X: 132.7, Y: 93}, {X: 147.5, Y: 84}, {X: 162.2, Y: 76},
	{X: 176.9, Y: 76}, {X: 191.7, Y: 73}, {X: 206.4, Y: 72},
}

var figure9 = Experiment{Name: "figure9", Paper: "Fig 9: utilization vs clock frequency", Plan: func(seed uint64) (clocksched.SweepConfig, Fold, error) {
	return Figure9Config(seed), func(res *clocksched.SweepResult, _ *clocksched.Telemetry) (string, []expt.Artifact, error) {
		s := Figure9(res)
		summary := s.Name + "\n"
		for _, p := range s.Points {
			summary += fmt.Sprintf("  %6.1f MHz  %5.1f%%\n", p.X, p.Y)
		}
		arts := append([]expt.Artifact{{Name: "figure9.dat", Content: s.Render()}},
			expt.SVGArtifact("figure9.svg", s)...)

		// Side-by-side with the published curve, over the paper's x-range.
		measured := plot.Line{Name: "measured (this reproduction)"}
		for _, p := range s.Points {
			if p.X >= 128 {
				measured.Points = append(measured.Points, plot.Point{X: p.X, Y: p.Y})
			}
		}
		if svg, err := plot.SVG(plot.Chart{
			Title:  "Figure 9: measured vs paper (plot-digitized, approximate)",
			XLabel: s.XLabel,
			YLabel: s.YLabel,
			Lines:  []plot.Line{measured, {Name: "paper (read off plot)", Points: figure9PaperPoints}},
		}); err == nil {
			arts = append(arts, expt.Artifact{Name: "figure9_compare.svg", Content: svg})
		}
		return summary, arts, nil
	}, nil
}}

// Figure8Config is the Figure 8 sweep: the deadline comparison's PAST
// peg-peg cell, 30 s of MPEG at the run seed under the paper's best policy,
// with its trace kept. The trace sets it apart from the deadline sweep's
// cell, whose key does not move, and makes it the zoo's MPEG past-peg-peg
// cell, whose cache entry it shares.
func Figure8Config(seed uint64) (clocksched.SweepConfig, error) {
	best, err := clocksched.NewPolicy("past-peg-peg", nil)
	return clocksched.SweepConfig{
		Workloads:    []clocksched.Workload{clocksched.MPEG},
		Policies:     []clocksched.Policy{best},
		Seeds:        []uint64{seed},
		Duration:     30 * time.Second,
		CaptureTrace: true,
		FailFast:     true,
	}, err
}

// Figure8 folds a Figure8Config sweep into the clock-frequency timeline of
// MPEG under PAST with peg-peg speed setting and 93%/98% thresholds: the
// policy slamming between 59 MHz and 206.4 MHz, "changing clock settings
// frequently".
func Figure8(res *clocksched.SweepResult) expt.Series {
	s := expt.Series{
		Name:   "Figure 8: MPEG clock frequency under PAST, peg-peg, 93%-98%",
		XLabel: "time (s)",
		YLabel: "clock (MHz)",
	}
	for p := range res.Cells[0].Result.TraceSeq() {
		// Quanta end on whole simulated microseconds; sim.Time's seconds
		// are the figure's x values, which time.Duration's differ from
		// in the last bit.
		s.Points = append(s.Points, expt.Point{X: sim.Time(p.At / time.Microsecond).Seconds(), Y: p.MHz})
	}
	return s
}

var figure8 = Experiment{Name: "figure8", Paper: "Fig 8: clock timeline under the best policy", Plan: func(seed uint64) (clocksched.SweepConfig, Fold, error) {
	cfg, err := Figure8Config(seed)
	return cfg, func(res *clocksched.SweepResult, _ *clocksched.Telemetry) (string, []expt.Artifact, error) {
		s := Figure8(res)
		r := res.Cells[0].Result
		summary := fmt.Sprintf("%s\n%s\nclock changes over 30s: %d; deadlines missed: %d\n",
			s.Name, s.Sparkline(80), r.ClockChanges, r.Misses)
		arts := append([]expt.Artifact{{Name: "figure8.dat", Content: s.Render()}},
			expt.SVGArtifact("figure8.svg", s)...)
		return summary, arts, nil
	}, err
}}
