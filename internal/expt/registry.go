package expt

import (
	"fmt"
	"strings"

	"clocksched/internal/plot"
)

// Artifact is one file an experiment produces (raw series or rendered
// table).
type Artifact struct {
	Name    string
	Content string
}

// Experiment is one regenerable result: a console summary plus artifacts.
type Experiment struct {
	// Name is the key used by cmd/experiments -only.
	Name string
	// Paper says what the experiment reproduces.
	Paper string
	// Run executes the experiment under the given environment (seed,
	// context, worker count, cell cache).
	Run func(env Env) (summary string, artifacts []Artifact, err error)
}

// Registry lists every experiment this package can run on its own, in the
// paper's presentation order followed by the extensions. The zoo and fleet
// experiments need layers above this package (the policy registry, the
// fleet engine), so cmd/experiments appends them: ZooExperiment and
// fleet.Experiment.
func Registry() []Experiment {
	return []Experiment{
		{"figure3", "Fig 3: utilization, 10ms quanta, 206.4MHz", runFigure3},
		{"figure4", "Fig 4: utilization, 100ms moving average", runFigure4},
		{"figure5", "Fig 5: naive window averaging", runFigure5},
		{"table1", "Table 1: AVG_9 scheduling actions", runTable1},
		{"figure6", "Fig 6: Fourier transform of decaying exponential", runFigure6},
		{"figure7", "Fig 7: AVG_3 oscillation on the rect wave", runFigure7},
		{"figure8", "Fig 8: clock timeline under the best policy", runFigure8},
		{"figure9", "Fig 9: utilization vs clock frequency", runFigure9},
		{"table2", "Table 2: energy of the best algorithms", runTable2},
		{"table3", "Table 3: memory access cycles", runTable3},
		{"battery", "§2.1: idle battery lifetime", runBattery},
		{"transitions", "§5.4: clock/voltage transition costs", runTransitions},
		{"overhead", "§4.3: forced rescheduling overhead", runOverhead},
		{"deadline", "§6 future work: deadline scheduling", runDeadline},
		{"martin", "§3: computations per battery lifetime", runMartin},
		{"pering", "§3: elastic frames, energy vs frame rate", runPering},
		{"playback", "battery-coupled playback endurance", runPlayback},
		{"sensitivity", "§5.3: threshold sensitivity", runSensitivity},
		{"exhaustion", "playback to battery exhaustion", runExhaustion},
		{"sa2", "§2.1: SA-2 voltage-scaling arithmetic", runSA2},
		{"dvs", "§2.1 projection: policies on an ideal DVS core", runDVS},
		{"weiser", "§3: Weiser trace-driven OPT/FUTURE/PAST scoring", runWeiser},
	}
}

// Find returns the named experiment from the list.
func Find(experiments []Experiment, name string) (Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// svgArtifact renders a series as an SVG chart artifact; series that fail
// to plot are skipped rather than failing the experiment.
func svgArtifact(name string, s Series) []Artifact {
	line := plot.Line{Name: s.Name, Points: make([]plot.Point, 0, len(s.Points))}
	for _, p := range s.Points {
		line.Points = append(line.Points, plot.Point{X: p.X, Y: p.Y})
	}
	svg, err := plot.SVG(plot.Chart{
		Title:  s.Name,
		XLabel: s.XLabel,
		YLabel: s.YLabel,
		Lines:  []plot.Line{line},
	})
	if err != nil {
		return nil
	}
	return []Artifact{{Name: name, Content: svg}}
}

func runFigure3(env Env) (string, []Artifact, error) {
	panels, err := Figure3Panels(env)
	if err != nil {
		return "", nil, err
	}
	summary := ""
	var arts []Artifact
	for i, s := range panels {
		w := FigureWorkloads[i]
		summary += fmt.Sprintf("%-14s %s\n", w, s.Sparkline(72))
		arts = append(arts, Artifact{Name: "figure3_" + w + ".dat", Content: s.Render()})
		arts = append(arts, svgArtifact("figure3_"+w+".svg", s)...)
	}
	return summary, arts, nil
}

func runFigure4(env Env) (string, []Artifact, error) {
	panels, err := Figure4Panels(env)
	if err != nil {
		return "", nil, err
	}
	summary := ""
	var arts []Artifact
	for i, s := range panels {
		w := FigureWorkloads[i]
		summary += fmt.Sprintf("%-14s %s\n", w, s.Sparkline(72))
		arts = append(arts, Artifact{Name: "figure4_" + w + ".dat", Content: s.Render()})
		arts = append(arts, svgArtifact("figure4_"+w+".svg", s)...)
	}
	return summary, arts, nil
}

func runFigure5(Env) (string, []Artifact, error) {
	text := Figure5().Render()
	return text, []Artifact{{Name: "figure5.txt", Content: text}}, nil
}

func runTable1(Env) (string, []Artifact, error) {
	text := RenderTable1(Table1())
	return text, []Artifact{{Name: "table1.txt", Content: text}}, nil
}

func runFigure6(Env) (string, []Artifact, error) {
	s, err := Figure6(9)
	if err != nil {
		return "", nil, err
	}
	arts := append([]Artifact{{Name: "figure6.dat", Content: s.Render()}},
		svgArtifact("figure6.svg", s)...)
	return fmt.Sprintf("%s\n%s\n", s.Name, s.Sparkline(62)), arts, nil
}

func runFigure7(Env) (string, []Artifact, error) {
	s, osc, err := Figure7()
	if err != nil {
		return "", nil, err
	}
	summary := fmt.Sprintf("%s\n%s\nsteady-state oscillation: %.3f peak-to-peak around mean %.3f\n",
		s.Name, s.Sparkline(80), osc.PeakToPeak, osc.Mean)
	arts := append([]Artifact{{Name: "figure7.dat", Content: s.Render()}},
		svgArtifact("figure7.svg", s)...)
	return summary, arts, nil
}

func runFigure8(env Env) (string, []Artifact, error) {
	s, out, err := Figure8(env.Seed)
	if err != nil {
		return "", nil, err
	}
	summary := fmt.Sprintf("%s\n%s\nclock changes over 30s: %d; deadlines missed: %d\n",
		s.Name, s.Sparkline(80), out.Kernel.SpeedChanges(),
		out.Workload.Metrics().MissCount(table2Slack))
	arts := append([]Artifact{{Name: "figure8.dat", Content: s.Render()}},
		svgArtifact("figure8.svg", s)...)
	return summary, arts, nil
}

// figure9PaperPoints are utilization values read off the published Figure 9
// plot (approximate; the paper's x-axis runs 128–198 MHz). They exist only
// for the side-by-side comparison chart.
var figure9PaperPoints = []plot.Point{
	{X: 132.7, Y: 93}, {X: 147.5, Y: 84}, {X: 162.2, Y: 76},
	{X: 176.9, Y: 76}, {X: 191.7, Y: 73}, {X: 206.4, Y: 72},
}

func runFigure9(env Env) (string, []Artifact, error) {
	s, err := Figure9Env(env)
	if err != nil {
		return "", nil, err
	}
	summary := s.Name + "\n"
	for _, p := range s.Points {
		summary += fmt.Sprintf("  %6.1f MHz  %5.1f%%\n", p.X, p.Y)
	}
	arts := append([]Artifact{{Name: "figure9.dat", Content: s.Render()}},
		svgArtifact("figure9.svg", s)...)

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
		arts = append(arts, Artifact{Name: "figure9_compare.svg", Content: svg})
	}
	return summary, arts, nil
}

func runTable2(env Env) (string, []Artifact, error) {
	rows, err := Table2Env(env)
	if err != nil {
		return "", nil, err
	}
	text := RenderTable2(rows)
	return text, []Artifact{{Name: "table2.txt", Content: text}}, nil
}

func runTable3(Env) (string, []Artifact, error) {
	text := RenderTable3(Table3())
	return text, []Artifact{{Name: "table3.txt", Content: text}}, nil
}

func runBattery(Env) (string, []Artifact, error) {
	res, err := BatteryLifetime()
	if err != nil {
		return "", nil, err
	}
	text := res.Render()
	return text, []Artifact{{Name: "battery.txt", Content: text}}, nil
}

func runTransitions(Env) (string, []Artifact, error) {
	res, err := TransitionCost()
	if err != nil {
		return "", nil, err
	}
	text := res.Render()
	return text, []Artifact{{Name: "transitions.txt", Content: text}}, nil
}

func runOverhead(Env) (string, []Artifact, error) {
	res, err := SchedulerOverhead()
	if err != nil {
		return "", nil, err
	}
	text := res.Render()
	return text, []Artifact{{Name: "overhead.txt", Content: text}}, nil
}

func runDeadline(env Env) (string, []Artifact, error) {
	rows, err := DeadlineComparisonEnv(env)
	if err != nil {
		return "", nil, err
	}
	text := RenderDeadlineComparison(rows)
	return text, []Artifact{{Name: "deadline.txt", Content: text}}, nil
}

func runMartin(Env) (string, []Artifact, error) {
	res, err := MartinOptimum(2.0)
	if err != nil {
		return "", nil, err
	}
	text := res.Render()
	return text, []Artifact{{Name: "martin.txt", Content: text}}, nil
}

func runPering(env Env) (string, []Artifact, error) {
	rows, err := PeringTradeoff(env.Seed)
	if err != nil {
		return "", nil, err
	}
	text := RenderPeringTradeoff(rows)
	return text, []Artifact{{Name: "pering.txt", Content: text}}, nil
}

func runPlayback(env Env) (string, []Artifact, error) {
	rows, err := PlaybackLifetime(env.Seed)
	if err != nil {
		return "", nil, err
	}
	text := RenderPlaybackLifetime(rows)
	return text, []Artifact{{Name: "playback.txt", Content: text}}, nil
}

func runSensitivity(env Env) (string, []Artifact, error) {
	cells, err := ThresholdSensitivityEnv(env)
	if err != nil {
		return "", nil, err
	}
	text := RenderSensitivity(cells)
	return text, []Artifact{{Name: "sensitivity.txt", Content: text}}, nil
}

func runExhaustion(env Env) (string, []Artifact, error) {
	rows, err := PlayUntilExhaustion(env.Seed)
	if err != nil {
		return "", nil, err
	}
	text := RenderExhaustion(rows)
	return text, []Artifact{{Name: "exhaustion.txt", Content: text}}, nil
}

func runSA2(Env) (string, []Artifact, error) {
	text := SA2Example().Render()
	return text, []Artifact{{Name: "sa2.txt", Content: text}}, nil
}

func runDVS(env Env) (string, []Artifact, error) {
	rows, err := IdealDVSComparison(env.Seed)
	if err != nil {
		return "", nil, err
	}
	text := RenderIdealDVS(rows)
	return text, []Artifact{{Name: "dvs.txt", Content: text}}, nil
}

func runWeiser(env Env) (string, []Artifact, error) {
	rows, err := WeiserOnWorkloads(env.Seed)
	if err != nil {
		return "", nil, err
	}
	text := RenderWeiser(rows)
	return text, []Artifact{{Name: "weiser.txt", Content: text}}, nil
}

// IndexHTML builds a small results index linking every artifact, with SVG
// figures inlined as images, so `cmd/experiments` leaves a browsable report
// behind.
func IndexHTML(artifacts []string) string {
	sb := &strings.Builder{}
	sb.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">" +
		"<title>Policies for Dynamic Clock Scheduling — reproduction results</title></head><body>\n")
	sb.WriteString("<h1>Policies for Dynamic Clock Scheduling — reproduction results</h1>\n")
	sb.WriteString("<p>Generated by <code>cmd/experiments</code>. " +
		"See EXPERIMENTS.md for the paper-vs-measured discussion.</p>\n<ul>\n")
	for _, name := range artifacts {
		fmt.Fprintf(sb, `<li><a href="%s">%s</a></li>`+"\n", name, name)
	}
	sb.WriteString("</ul>\n")
	for _, name := range artifacts {
		if strings.HasSuffix(name, ".svg") {
			fmt.Fprintf(sb, `<div><img src="%s" alt="%s"/></div>`+"\n", name, name)
		}
	}
	sb.WriteString("</body></html>\n")
	return sb.String()
}
