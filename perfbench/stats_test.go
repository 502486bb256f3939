package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.median and
// statistics.quantiles(xs, n=4) on the same inputs.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		median, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{3, 1, 2, 10}, 2.5, 1.25, 8.25},
		{[]float64{5, 7}, 6, 4.5, 7.5},
		{[]float64{0.5, 0.25, 1.5, 2.0, 9.0, 3.0}, 1.75, 0.4375, 4.5},
		{[]float64{4}, 4, 4, 4},
	} {
		d := summarize(tc.xs)
		if d.Median != tc.median || math.Abs(d.Q1-tc.q1) > 1e-12 || math.Abs(d.Q3-tc.q3) > 1e-12 || d.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want median %g q1 %g q3 %g", tc.xs, d, tc.median, tc.q1, tc.q3)
		}
	}
	if got := summarize([]float64{90, 100, 110, 120}).spread(); math.Abs(got-25.0/105) > 1e-12 {
		t.Errorf("spread = %g, want iqr 25 of median 105", got)
	}
}

func TestPercentileNearestRankAndBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{100, 50, 50, 50, true},
		{100, 99, 99, 1, false},
		{1000, 99, 990, 10, true},
		{999, 99, 990, 9, false}, // rank ceil(989.01) = 990
		{19, 50, 10, 9, false},
		{20, 50, 10, 10, true},
		{1, 50, 1, 0, false},
	} {
		v, beyond, ok := percentile(seq(tc.n), tc.p)
		if v != tc.want || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("percentile(1..%d, p%g) = %g, %d beyond, ok %v; want %g, %d, %v",
				tc.n, tc.p, v, beyond, ok, tc.want, tc.beyond, tc.ok)
		}
	}
	if _, _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples is quotable")
	}
}

func TestJudgeBounds(t *testing.T) {
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"within bound", lower, []float64{100, 101, 99}, []float64{104, 105, 103}, verdictOK},
		{"worse beyond bound", lower, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictWorse},
		{"better beyond bound", lower, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictBetter},
		{"higher is better: drop is worse", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, verdictWorse},
		{"higher is better: rise is better", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictBetter},
		{"base spread wider than bound", lower, []float64{50, 100, 150}, []float64{101, 102, 100}, verdictUnresolved},
		{"change spread wider than bound", lower, []float64{100, 101, 99}, []float64{60, 100, 140}, verdictUnresolved},
		{"wide spread but every change run better", lower, []float64{100, 150, 200}, []float64{10, 20, 30}, verdictBetter},
		{"wide spread, every change run worse", lower, []float64{100, 150, 200}, []float64{300, 400, 500}, verdictUnresolved},
		{"single runs: exactly at bound is ok", lower, []float64{100}, []float64{110}, verdictOK},
	} {
		if got := judge(tc.m, tc.a, tc.b).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
