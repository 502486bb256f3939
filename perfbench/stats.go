package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// dist is one metric's distribution: over the rounds of a run, or over the
// runs of a result set.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (its default "exclusive" method),
// so a spread computed here reads the same as one computed by any script
// that checks the benchmark's results.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	switch len(s) {
	case 0:
		return d
	case 1:
		d.Median, d.Q1, d.Q3 = s[0], s[0], s[0]
		return d
	}
	if n := len(s); n%2 == 1 {
		d.Median = s[n/2]
	} else {
		d.Median = (s[n/2-1] + s[n/2]) / 2
	}
	d.Q1 = quartile(s, 1)
	d.Q3 = quartile(s, 3)
	return d
}

// quartile is the i-th cut point (1..3) of sorted s, len(s) >= 2, by the
// exclusive method: linear interpolation at position i*(n+1)/4, clamped to
// the data.
func quartile(s []float64, i int) float64 {
	const parts = 4
	ld := len(s)
	m := ld + 1
	j := min(max(i*m/parts, 1), ld-1)
	delta := i*m - j*parts
	return (s[j-1]*float64(parts-delta) + s[j]*float64(delta)) / parts
}

// spread is the interquartile range as a share of the median's magnitude.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

// minBeyond is how many samples must lie beyond a percentile before it is
// quoted: fewer, and the "percentile" is one or two samples' noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// and how many samples lie beyond it; ok reports whether that count meets
// minBeyond.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// metricDef describes one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judgement is one row of a comparison between a base result set a and a
// changed one b.
type judgement struct {
	A, B    dist
	Change  float64 // relative change of b's median from a's, signed so positive is worse
	Verdict string
}

// judge applies a metric's bound to two sets of per-run values. A change is
// worse when b's median is worse than a's by more than the bound, and
// unresolved when either set's run-to-run spread is wider than the bound,
// unless every run of b reads better than every run of a. A change better
// by more than the bound with both spreads inside it is reported better.
func judge(m metricDef, a, b []float64) judgement {
	j := judgement{A: summarize(a), B: summarize(b)}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	if j.A.Median != 0 {
		j.Change = sign * (j.B.Median - j.A.Median) / math.Abs(j.A.Median)
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case !allBetter && (j.A.spread() > m.Bound || j.B.spread() > m.Bound):
		j.Verdict = verdictUnresolved
	case j.Change > m.Bound:
		j.Verdict = verdictWorse
	case j.Change < -m.Bound:
		j.Verdict = verdictBetter
	default:
		j.Verdict = verdictOK
	}
	return j
}

// readRecords loads a result set: one record per line, as written by -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compare checks result set b against base set a, one row per workload ×
// end-to-end metric, and reports whether no row is worse or unresolved.
// Runs that were traced, or whose outputs were wrong, are left out.
func compare(w io.Writer, spec benchSpec, a, b []record) bool {
	type key struct{ workload, metric string }
	values := func(rs []record) (map[key][]float64, []string) {
		m := map[key][]float64{}
		seen := map[string]bool{}
		var order []string
		for _, r := range rs {
			if r.Trace || !r.Correct {
				continue
			}
			if !seen[r.Workload] {
				seen[r.Workload] = true
				order = append(order, r.Workload)
			}
			for name, v := range r.Metrics {
				m[key{r.Workload, name}] = append(m[key{r.Workload, name}], v.Value)
			}
		}
		return m, order
	}
	va, order := values(a)
	vb, _ := values(b)
	clean := true
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %8s %7s %7s %7s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "bound", "A iqr", "B iqr", "verdict")
	for _, wl := range order {
		for _, m := range spec.EndToEnd {
			xa, xb := va[key{wl, m.Name}], vb[key{wl, m.Name}]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-14s %-18s %12s %12s %8s %7s %7s %7s  missing\n", wl, m.Name, "-", "-", "-", "-", "-", "-")
				clean = false
				continue
			}
			j := judge(m, xa, xb)
			fmt.Fprintf(w, "%-14s %-18s %12.5g %12.5g %+7.1f%% %6.0f%% %6.1f%% %6.1f%%  %s\n",
				wl, m.Name, j.A.Median, j.B.Median, 100*j.Change, 100*m.Bound,
				100*j.A.spread(), 100*j.B.spread(), j.Verdict)
			if j.Verdict == verdictWorse || j.Verdict == verdictUnresolved {
				clean = false
			}
		}
	}
	return clean
}
