package expt

import (
	"fmt"
	"math"
	"strings"

	"clocksched/internal/analysis"
	"clocksched/internal/cpu"
)

// Point is one (x, y) sample of a figure's series.
type Point struct {
	X, Y float64
}

// Series is a named curve.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Render prints the series as aligned columns.
func (s Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n# %s\t%s\n", s.Name, s.XLabel, s.YLabel)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%g\t%g\n", p.X, p.Y)
	}
	return b.String()
}

// Sparkline draws a coarse text plot of the series, banded into rows.
func (s Series) Sparkline(width int) string {
	if len(s.Points) == 0 || width < 1 {
		return ""
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	minY, maxY := s.Points[0].Y, s.Points[0].Y
	for _, p := range s.Points {
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	span := maxY - minY
	var b strings.Builder
	step := float64(len(s.Points)) / float64(width)
	if step < 1 {
		step = 1
	}
	for i := 0; i < width && int(float64(i)*step) < len(s.Points); i++ {
		y := s.Points[int(float64(i)*step)].Y
		idx := 0
		if span > 0 {
			idx = int((y - minY) / span * float64(len(marks)-1))
		}
		b.WriteRune(marks[idx])
	}
	return b.String()
}

// FigureWorkloads lists the four applications of Figures 3 and 4 by their
// RunSpec names. The zoo experiment compares policies on the same four.
var FigureWorkloads = []string{"mpeg", "web", "chess", "editor"}

// Figure4Series smooths one Figure 3 series with the 100 ms moving average
// (10 quanta) to produce the matching Figure 4 panel.
func Figure4Series(workloadName string, raw Series) (Series, error) {
	ys := make([]float64, len(raw.Points))
	for i, p := range raw.Points {
		ys[i] = p.Y
	}
	ma, err := analysis.MovingAverage(ys, 10)
	if err != nil {
		return Series{}, err
	}
	s := Series{
		Name:   fmt.Sprintf("Figure 4: %s utilization, 100ms moving average, 206.4MHz", workloadName),
		XLabel: raw.XLabel,
		YLabel: "utilization (100ms MA)",
	}
	for i, p := range raw.Points {
		s.Points = append(s.Points, Point{X: p.X, Y: ma[i]})
	}
	return s, nil
}

// Figure5Row is one scheduling interval of the Figure 5 worked example: the
// contents of the four-quantum window, the resulting average demand in MHz,
// and the speed the naive policy selects.
type Figure5Row struct {
	Interval int
	// Window holds the last four quanta as "MHz/busy" pairs, oldest
	// first, exactly like the figure's boxes.
	Window [4]string
	AvgMHz float64
	Speed  cpu.Step
}

// Figure5Result holds both scenarios of the worked example.
type Figure5Result struct {
	GoingIdle  []Figure5Row
	SpeedingUp []Figure5Row
}

// Figure5 reproduces the worked example showing why averaging non-idle
// instructions over four quanta makes a poor speed-setting policy: scaling
// down is quick, scaling back up is very slow.
func Figure5() Figure5Result {
	type quantum struct {
		mhz  float64
		busy int
	}
	simulate := func(window [4]quantum, incomingBusy int, steps int) []Figure5Row {
		var rows []Figure5Row
		w := window
		for i := 0; i < steps; i++ {
			// Average non-idle instruction rate over the window, in MHz.
			sum := 0.0
			for _, q := range w {
				sum += q.mhz * float64(q.busy)
			}
			avg := sum / 4
			speed := cpu.StepForKHz(int64(avg * 1000))
			row := Figure5Row{Interval: i, AvgMHz: avg, Speed: speed}
			for j, q := range w {
				row.Window[j] = fmt.Sprintf("%.1f/%d", q.mhz, q.busy)
			}
			rows = append(rows, row)
			// Shift in the next quantum at the selected speed.
			copy(w[:], w[1:])
			w[3] = quantum{mhz: speed.MHz(), busy: incomingBusy}
		}
		return rows
	}
	busyWindow := [4]quantum{{206.4, 1}, {206.4, 1}, {206.4, 1}, {206.4, 1}}
	idleWindow := [4]quantum{{59.0, 0}, {59.0, 0}, {59.0, 0}, {59.0, 0}}
	return Figure5Result{
		GoingIdle:  simulate(busyWindow, 0, 5),
		SpeedingUp: simulate(idleWindow, 1, 5),
	}
}

// Render prints the example in the figure's box style.
func (f Figure5Result) Render() string {
	var b strings.Builder
	write := func(title string, rows []Figure5Row) {
		fmt.Fprintf(&b, "%s\n", title)
		for _, r := range rows {
			fmt.Fprintf(&b, "  [%s] Avg = %.4g MHz, Speed = %s\n",
				strings.Join(r.Window[:], " "), r.AvgMHz, r.Speed)
		}
	}
	write("Figure 5(a): Going to idle", f.GoingIdle)
	write("Figure 5(b): Speeding up", f.SpeedingUp)
	return b.String()
}

// Figure6 reproduces the Fourier-transform magnitude of the decaying
// exponential weighting function, |X(ω)| = 1/√(ω²+α²), over ω ∈ [0, 15]
// with the paper's 0.5 grid, for the AVG_N-equivalent decay rate.
func Figure6(n int) (Series, error) {
	alpha, err := analysis.AlphaForAvgN(n)
	if err != nil {
		return Series{}, err
	}
	s := Series{
		Name:   fmt.Sprintf("Figure 6: |X(ω)| of decaying exponential (AVG_%d, α=%.4f)", n, alpha),
		XLabel: "ω (rad/quantum)",
		YLabel: "|X(ω)|",
	}
	for w := 0.0; w <= 15.0001; w += 0.5 {
		m, err := analysis.ExpDecayTransformMag(alpha, w)
		if err != nil {
			return Series{}, err
		}
		s.Points = append(s.Points, Point{X: w, Y: m})
	}
	return s, nil
}

// Figure7 reproduces the AVG_3 filtering of the periodic 9-busy/1-idle
// workload over 800 quanta, showing the oscillation that never settles.
// It also reports the steady-state oscillation measurement.
func Figure7() (Series, analysis.Oscillation, error) {
	wave, err := analysis.RectWave(9, 1, 800)
	if err != nil {
		return Series{}, analysis.Oscillation{}, err
	}
	filtered, err := analysis.ExpDecayFilter(wave, 3, 0.9)
	if err != nil {
		return Series{}, analysis.Oscillation{}, err
	}
	s := Series{
		Name:   "Figure 7: AVG_3 filtered utilization of 9-busy/1-idle wave",
		XLabel: "quantum",
		YLabel: "weighted utilization",
	}
	for i, y := range filtered {
		s.Points = append(s.Points, Point{X: float64(i), Y: y})
	}
	osc, err := analysis.MeasureOscillation(filtered, 400)
	return s, osc, err
}
