// Package stats provides the small set of descriptive statistics the paper's
// methodology needs: sample mean, standard deviation, and Student-t 95%
// confidence intervals ("we found the 95% confidence interval of the energy
// to be less than 0.7% of the mean energy"), plus simple histograms for
// utilization distributions.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic needs at least one sample.
var ErrEmpty = errors.New("stats: no samples")

// Mean returns the arithmetic mean of xs, or an error if xs is empty.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the unbiased sample variance (divisor n−1). A single
// sample has zero variance by convention.
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m, _ := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MinMax returns the extremes of xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Quantile returns the p-th percentile (0 ≤ p ≤ 100) of xs under the
// nearest-rank definition: the smallest sample x such that at least p% of
// the samples are ≤ x. It never interpolates, so the result is always an
// actual sample and the computation is exactly reproducible across
// platforms — no float blending whose rounding could split a
// byte-identity guarantee. The fleet reducer's population tables
// are built on it for exactly that reason.
//
// Boundary conventions: p = 0 returns the minimum, p = 100 the maximum,
// and a single-sample set returns that sample for every p. The input is
// not modified.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if math.IsNaN(p) || p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	// Nearest rank: ceil(p/100 · n), clamped to [1, n] so p = 0 still
	// indexes the first sample.
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], nil
}

// Quantiles computes several nearest-rank quantiles over one sort of xs.
// The result is ordered like ps. Use it when reducing the same sample set
// to p50/p95/p99 in one pass.
func Quantiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if math.IsNaN(p) || p < 0 || p > 100 {
			return nil, fmt.Errorf("stats: quantile %v out of [0,100]", p)
		}
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(sorted) {
			rank = len(sorted)
		}
		out[i] = sorted[rank-1]
	}
	return out, nil
}

// tTable holds two-sided 95% Student-t critical values indexed by degrees of
// freedom 1..30. Beyond 30 degrees the normal approximation 1.96 is used.
var tTable = [31]float64{
	0, // df 0 unused
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom (≥1).
func TCritical95(df int) float64 {
	if df < 1 {
		df = 1
	}
	if df <= 30 {
		return tTable[df]
	}
	return 1.96
}

// Interval is a symmetric confidence interval around a sample mean.
type Interval struct {
	Mean float64
	Low  float64
	High float64
	N    int
}

// HalfWidth returns half the interval's span.
func (iv Interval) HalfWidth() float64 { return (iv.High - iv.Low) / 2 }

// RelativeWidth returns the half-width as a fraction of the mean, the
// "CI less than 0.7% of the mean" figure the paper quotes. It returns +Inf
// for a zero mean with nonzero width.
func (iv Interval) RelativeWidth() float64 {
	if iv.Mean == 0 {
		if iv.HalfWidth() == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(iv.HalfWidth() / iv.Mean)
}

// String formats the interval the way the paper's Table 2 does:
// "low - high".
func (iv Interval) String() string {
	return fmt.Sprintf("%.2f - %.2f", iv.Low, iv.High)
}

// CI95 returns the 95% Student-t confidence interval for the mean of xs.
// At least two samples are required for a nonzero width.
func CI95(xs []float64) (Interval, error) {
	m, err := Mean(xs)
	if err != nil {
		return Interval{}, err
	}
	if len(xs) == 1 {
		return Interval{Mean: m, Low: m, High: m, N: 1}, nil
	}
	sd, err := StdDev(xs)
	if err != nil {
		return Interval{}, err
	}
	h := TCritical95(len(xs)-1) * sd / math.Sqrt(float64(len(xs)))
	return Interval{Mean: m, Low: m - h, High: m + h, N: len(xs)}, nil
}

// Summary bundles the descriptive statistics of one sample set.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	CI     Interval
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	m, _ := Mean(xs)
	sd, _ := StdDev(xs)
	lo, hi, _ := MinMax(xs)
	ci, _ := CI95(xs)
	return Summary{N: len(xs), Mean: m, StdDev: sd, Min: lo, Max: hi, CI: ci}, nil
}
