package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Errorf("Mean = %v, %v", m, err)
	}
	m, _ = Mean([]float64{7})
	if m != 7 {
		t.Errorf("Mean single = %v", m)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	if _, err := Variance(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Variance(nil) did not return ErrEmpty")
	}
	v, _ := Variance([]float64{5})
	if v != 0 {
		t.Errorf("single-sample variance = %v, want 0", v)
	}
	// Known: variance of {2,4,4,4,5,5,7,9} is 32/7 (unbiased).
	v, _ = Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", v, 32.0/7)
	}
	sd, _ := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(sd-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("stddev = %v", sd)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 4, 1, 5})
	if err != nil || lo != -1 || hi != 5 {
		t.Errorf("MinMax = %v, %v, %v", lo, hi, err)
	}
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmpty) {
		t.Error("MinMax(nil) did not return ErrEmpty")
	}
}

func TestQuantile(t *testing.T) {
	if _, err := Quantile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Error("Quantile(nil) did not return ErrEmpty")
	}
	if _, err := Quantile([]float64{}, 95); !errors.Is(err, ErrEmpty) {
		t.Error("Quantile(empty) did not return ErrEmpty")
	}
	// Single sample: every p, including the extremes, returns that sample.
	for _, p := range []float64{0, 1, 50, 95, 99, 100} {
		got, err := Quantile([]float64{42}, p)
		if err != nil || got != 42 {
			t.Errorf("Quantile(single, %v) = %v, %v, want 42", p, got, err)
		}
	}
	// Nearest rank never interpolates: p50 of {1..4} is the 2nd sample, not 2.5.
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 1}, {50, 2}, {75, 3}, {95, 4}, {99, 4}, {100, 4},
	} {
		got, err := Quantile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("Quantile(%v, %v) = %v, %v, want %v", xs, c.p, got, err, c.want)
		}
	}
	// 100 samples 1..100: p95 = 95th sample, p99 = 99th.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(100 - i)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}} {
		got, _ := Quantile(big, c.p)
		if got != c.want {
			t.Errorf("Quantile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Out-of-range and NaN probabilities are rejected.
	for _, p := range []float64{-1, 100.5, math.NaN()} {
		if _, err := Quantile(xs, p); err == nil {
			t.Errorf("Quantile(p=%v) did not error", p)
		}
	}
	// Input must not be mutated.
	unsorted := []float64{3, 1, 2}
	Quantile(unsorted, 50)
	if unsorted[0] != 3 || unsorted[1] != 1 || unsorted[2] != 2 {
		t.Error("Quantile mutated its input slice")
	}
}

func TestQuantiles(t *testing.T) {
	if _, err := Quantiles(nil, 50, 95, 99); !errors.Is(err, ErrEmpty) {
		t.Error("Quantiles(nil) did not return ErrEmpty")
	}
	xs := []float64{5, 2, 9, 1, 7}
	got, err := Quantiles(xs, 50, 95, 99)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 9, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Quantiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Batch and single forms agree for every p.
	for _, p := range []float64{0, 10, 33, 50, 66, 90, 95, 99, 100} {
		single, _ := Quantile(xs, p)
		batch, _ := Quantiles(xs, p)
		if single != batch[0] {
			t.Errorf("Quantile(%v)=%v disagrees with Quantiles=%v", p, single, batch[0])
		}
	}
	if _, err := Quantiles(xs, 50, math.NaN()); err == nil {
		t.Error("Quantiles with NaN p did not error")
	}
}

func TestTCritical95(t *testing.T) {
	if got := TCritical95(1); got != 12.706 {
		t.Errorf("t(df=1) = %v", got)
	}
	if got := TCritical95(9); got != 2.262 {
		t.Errorf("t(df=9) = %v", got)
	}
	if got := TCritical95(30); got != 2.042 {
		t.Errorf("t(df=30) = %v", got)
	}
	if got := TCritical95(1000); got != 1.96 {
		t.Errorf("t(df=1000) = %v", got)
	}
	if got := TCritical95(0); got != 12.706 {
		t.Errorf("t(df=0) should clamp to df=1, got %v", got)
	}
}

func TestCI95(t *testing.T) {
	if _, err := CI95(nil); !errors.Is(err, ErrEmpty) {
		t.Error("CI95(nil) did not return ErrEmpty")
	}
	iv, err := CI95([]float64{10})
	if err != nil || iv.Low != 10 || iv.High != 10 || iv.N != 1 {
		t.Errorf("single-sample CI = %+v, %v", iv, err)
	}
	// Hand-checked: {8,9,10,11,12}: mean 10, sd sqrt(2.5), df=4, t=2.776,
	// half = 2.776*sqrt(2.5)/sqrt(5) = 1.9629...
	iv, err = CI95([]float64{8, 9, 10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	wantHalf := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(iv.Mean-10) > 1e-12 || math.Abs(iv.HalfWidth()-wantHalf) > 1e-9 {
		t.Errorf("CI = %+v, want mean 10 half %v", iv, wantHalf)
	}
	if iv.Low >= iv.Mean || iv.High <= iv.Mean {
		t.Errorf("interval %v does not bracket the mean", iv)
	}
}

func TestIntervalRelativeWidth(t *testing.T) {
	iv := Interval{Mean: 100, Low: 99, High: 101}
	if got := iv.RelativeWidth(); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("RelativeWidth = %v, want 0.01", got)
	}
	zero := Interval{}
	if zero.RelativeWidth() != 0 {
		t.Error("zero interval should have zero relative width")
	}
	weird := Interval{Mean: 0, Low: -1, High: 1}
	if !math.IsInf(weird.RelativeWidth(), 1) {
		t.Error("nonzero width around zero mean should be +Inf")
	}
}

func TestIntervalString(t *testing.T) {
	iv := Interval{Mean: 86.04, Low: 85.59, High: 86.49}
	if got := iv.String(); got != "85.59 - 86.49" {
		t.Errorf("String() = %q (Table 2 format)", got)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Summarize(nil) did not return ErrEmpty")
	}
}

// Property: the CI always brackets the mean, and widens with more spread.
func TestCI95Property(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		iv, err := CI95(xs)
		if err != nil {
			return false
		}
		return iv.Low <= iv.Mean && iv.Mean <= iv.High
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is translation-invariant.
func TestVarianceShiftProperty(t *testing.T) {
	f := func(raw []int8, shift int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v) + float64(shift)
		}
		vx, _ := Variance(xs)
		vy, _ := Variance(ys)
		return math.Abs(vx-vy) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
