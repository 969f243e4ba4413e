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

// TwoSidedP converts a z statistic to a two-sided p-value under the
// standard normal (a Wald test's). It is erfc(|z|/√2) directly rather
// than 2·(1 − Φ(|z|)), which rounds to exactly 0 once |z| passes about
// 8.3.
func TwoSidedP(z float64) float64 {
	return math.Erfc(math.Abs(z) / math.Sqrt2)
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
