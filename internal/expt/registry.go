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

// Registry lists every experiment this package runs on its own, in the
// paper's presentation order followed by the extensions: the analytic ones,
// and pering, exhaustion and dvs, which simulate through RunContext under
// the run's context. The experiments that are sweeps of clocksched.Config
// cells (figures 3, 4, 8 and 9, Table 2, deadline, playback, sensitivity,
// weiser, zoo and fleet) live in internal/grids, above the root package,
// whose Catalogue puts both lists in run order.
func Registry() []Experiment {
	return []Experiment{
		{"figure5", "Fig 5: naive window averaging", runFigure5},
		{"table1", "Table 1: AVG_9 scheduling actions", runTable1},
		{"figure6", "Fig 6: Fourier transform of decaying exponential", runFigure6},
		{"figure7", "Fig 7: AVG_3 oscillation on the rect wave", runFigure7},
		{"table3", "Table 3: memory access cycles", runTable3},
		{"battery", "§2.1: idle battery lifetime", runBattery},
		{"transitions", "§5.4: clock/voltage transition costs", runTransitions},
		{"overhead", "§4.3: forced rescheduling overhead", runOverhead},
		{"martin", "§3: computations per battery lifetime", runMartin},
		{"pering", "§3: elastic frames, energy vs frame rate", runPering},
		{"exhaustion", "playback to battery exhaustion", runExhaustion},
		{"sa2", "§2.1: SA-2 voltage-scaling arithmetic", runSA2},
		{"dvs", "§2.1 projection: policies on an ideal DVS core", runDVS},
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

// SVGArtifact renders a series as an SVG chart artifact; series that fail
// to plot are skipped rather than failing the experiment.
func SVGArtifact(name string, s Series) []Artifact {
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
		SVGArtifact("figure6.svg", s)...)
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
		SVGArtifact("figure7.svg", s)...)
	return summary, arts, nil
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

func runMartin(Env) (string, []Artifact, error) {
	res, err := MartinOptimum(2.0)
	if err != nil {
		return "", nil, err
	}
	text := res.Render()
	return text, []Artifact{{Name: "martin.txt", Content: text}}, nil
}

func runPering(env Env) (string, []Artifact, error) {
	rows, err := PeringTradeoff(env.Context(), env.Seed)
	if err != nil {
		return "", nil, err
	}
	text := RenderPeringTradeoff(rows)
	return text, []Artifact{{Name: "pering.txt", Content: text}}, nil
}

func runExhaustion(env Env) (string, []Artifact, error) {
	rows, err := PlayUntilExhaustion(env.Context(), env.Seed)
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
	rows, err := IdealDVSComparison(env.Context(), env.Seed)
	if err != nil {
		return "", nil, err
	}
	text := RenderIdealDVS(rows)
	return text, []Artifact{{Name: "dvs.txt", Content: text}}, nil
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
