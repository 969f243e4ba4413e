// Package stats implements the statistical machinery the paper's
// analysis needs, on top of the standard library only: descriptive
// statistics (medians, quantiles, empirical CDFs), dense matrices,
// ordinary least squares linear regression, and logistic regression
// fitted by iteratively reweighted least squares, both with Wald
// z-tests for coefficient significance.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Median returns the sample median (average of middle two for even n).
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// MustMedian is Median for samples known to be non-empty.
func MustMedian(xs []float64) float64 {
	m, err := Median(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Mean returns the arithmetic mean.
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

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	m, _ := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1)), nil
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF over xs.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Len reports the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// Points returns (x, P(X<=x)) pairs decimated to at most n points,
// suitable for rendering the paper's CDF figures as series.
func (e *ECDF) Points(n int) [][2]float64 {
	if n <= 0 || n > len(e.sorted) {
		n = len(e.sorted)
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(e.sorted) - 1) / max(n-1, 1)
		out = append(out, [2]float64{e.sorted[idx], float64(idx+1) / float64(len(e.sorted))})
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MinMaxScale rescales xs to [0,1]; constant inputs map to 0.
func MinMaxScale(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	out := make([]float64, len(xs))
	if hi == lo {
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}

// NormalCDF is the standard normal CDF, used for Wald p-values.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// TwoSidedP converts a z statistic to a two-sided p-value.
func TwoSidedP(z float64) float64 {
	return 2 * (1 - NormalCDF(math.Abs(z)))
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples x and y.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: Pearson needs paired samples")
	}
	if len(x) < 2 {
		return 0, ErrEmpty
	}
	mx, _ := Mean(x)
	my, _ := Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: Pearson undefined for constant sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
