package analysis

import (
	"fmt"

	"repro/internal/anycast"
	"repro/internal/stats"
	"repro/internal/world"
)

// LogisticResult is one covariate's effect in the Table-4 model: the
// odds that a client with the property experiences a worse-than-median
// slowdown when switching from Do53 to DoHN, holding everything else
// constant.
type LogisticResult struct {
	// Variable labels the covariate ("Bandwidth: Slow", ...).
	Variable string
	// OddsRatio maps N (queries per connection) to the fitted odds
	// ratio, reproducing the paper's OR / OR_10 / OR_100 / OR_1000
	// columns.
	OddsRatio map[int]float64
	// P maps N to the Wald p-value.
	P map[int]float64
}

// LogisticCovariateNames lists the Table-4 dummies in order.
var LogisticCovariateNames = []string{
	"Bandwidth: Slow",
	"Income: Upper-middle",
	"Income: Lower-middle",
	"Income: Low",
	"ASes: Lower than median",
	"Resolver: Google",
	"Resolver: NextDNS",
	"Resolver: Quad9",
}

// logisticDesign builds the dummy covariates for a row. Controls:
// fast bandwidth, high income, ASes above median, Cloudflare.
func logisticDesign(r Row, medianASes int) []float64 {
	x := make([]float64, 8)
	if !r.Country.Fast() {
		x[0] = 1
	}
	switch r.Country.Income {
	case world.UpperMiddleIncome:
		x[1] = 1
	case world.LowerMiddleIncome:
		x[2] = 1
	case world.LowIncome:
		x[3] = 1
	}
	if r.Country.NumASes < medianASes {
		x[4] = 1
	}
	switch r.Provider {
	case anycast.Google:
		x[5] = 1
	case anycast.NextDNS:
		x[6] = 1
	case anycast.Quad9:
		x[7] = 1
	}
	return x
}

// GlobalMedianMultiplier returns the median DoHN/Do53 multiplier
// across rows (the paper's 1.84x / 1.24x / 1.18x / 1.17x for N = 1,
// 10, 100, 1000).
func (a *Analysis) GlobalMedianMultiplier(n int) (float64, error) {
	var ms []float64
	for _, r := range a.rows {
		if m := r.Multiplier(n); m > 0 {
			ms = append(ms, m)
		}
	}
	return stats.Median(ms)
}

// FitLogistic fits the Table-4 model for each N in ns: outcome 1 when
// the client's multiplier is worse than the global median for that N.
func (a *Analysis) FitLogistic(ns []int) ([]LogisticResult, error) {
	results := make([]LogisticResult, len(LogisticCovariateNames))
	for i, name := range LogisticCovariateNames {
		results[i] = LogisticResult{
			Variable:  name,
			OddsRatio: make(map[int]float64),
			P:         make(map[int]float64),
		}
	}
	medASes := world.MedianASCount()
	for _, n := range ns {
		globalMed, err := a.GlobalMedianMultiplier(n)
		if err != nil {
			return nil, fmt.Errorf("analysis: logistic N=%d: %w", n, err)
		}
		var x [][]float64
		var y []float64
		for _, r := range a.rows {
			m := r.Multiplier(n)
			if m <= 0 {
				continue
			}
			x = append(x, logisticDesign(r, medASes))
			if m > globalMed {
				y = append(y, 1) // slowdown worse than median
			} else {
				y = append(y, 0)
			}
		}
		model, err := stats.FitLogistic(x, y, LogisticCovariateNames)
		if err != nil {
			return nil, fmt.Errorf("analysis: logistic N=%d: %w", n, err)
		}
		for i, c := range model.Coefficients {
			results[i].OddsRatio[n] = c.OddsRatio()
			results[i].P[n] = c.P
		}
	}
	return results, nil
}

// LinearCovariateNames lists the Table-5 covariates in order.
var LinearCovariateNames = []string{
	"GDP", "Bandwidth", "Num ASes", "Nameserver Dist.", "Resolver Dist.",
}

// LinearResult is one covariate of the Table-5/-6 linear model of the
// raw delta (DoHN - Do53 in milliseconds).
type LinearResult struct {
	// Metric labels the covariate.
	Metric string
	// Coef is the raw coefficient (ms per covariate unit).
	Coef float64
	// ScaledCoef is the coefficient the fit gives the covariate
	// min-max scaled to [0,1]: Coef times the column's range (ms per
	// full range). Scaling a column moves no other term of an OLS fit.
	ScaledCoef float64
	// P is the Wald p-value of the raw fit.
	P float64
}

// LinearModelResult is a fitted delta model for one N.
type LinearModelResult struct {
	// N is the queries-per-connection the delta uses.
	N int
	// Rows are the covariate results in LinearCovariateNames order.
	Rows []LinearResult
	// R2 and NObs describe the fit.
	R2   float64
	NObs int
}

func linearDesign(r Row) []float64 {
	return []float64{
		r.Country.GDPPerCapita,
		r.Country.BandwidthMbps,
		float64(r.Country.NumASes),
		r.NSDistanceMiles,
		r.ResolverDistanceMiles,
	}
}

// FitLinear fits the Table-5 model for each N in ns over the given
// rows (pass a.Rows() for the aggregate table, or a provider-filtered
// subset for Table 6).
func FitLinear(rows []Row, ns []int) ([]LinearModelResult, error) {
	var out []LinearModelResult
	for _, n := range ns {
		var x [][]float64
		var y []float64
		for _, r := range rows {
			x = append(x, linearDesign(r))
			y = append(y, r.DeltaMs(n))
		}
		model, err := stats.FitLinear(x, y, LinearCovariateNames)
		if err != nil {
			return nil, fmt.Errorf("analysis: linear N=%d: %w", n, err)
		}
		res := LinearModelResult{N: n, R2: model.R2, NObs: model.N}
		for j := range LinearCovariateNames {
			res.Rows = append(res.Rows, LinearResult{
				Metric:     LinearCovariateNames[j],
				Coef:       model.Coefficients[j].Value,
				ScaledCoef: model.Coefficients[j].Value * colRange(x, j),
				P:          model.Coefficients[j].P,
			})
		}
		out = append(out, res)
	}
	return out, nil
}

// colRange is column j's max minus its min.
func colRange(x [][]float64, j int) float64 {
	lo, hi := x[0][j], x[0][j]
	for _, row := range x {
		lo, hi = min(lo, row[j]), max(hi, row[j])
	}
	return hi - lo
}

// RowsForProvider filters rows to one DoH service (Table 6).
func (a *Analysis) RowsForProvider(pid anycast.ProviderID) []Row {
	var out []Row
	for _, r := range a.rows {
		if r.Provider == pid {
			out = append(out, r)
		}
	}
	return out
}
