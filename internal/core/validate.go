package core

import (
	"fmt"
	"time"

	"repro/internal/anycast"
	"repro/internal/proxynet"
	"repro/internal/stats"
)

// ValidationRow is one country of a ground-truth validation experiment
// (paper Section 4, Tables 1 and 2): the median estimated value next
// to the median true value across repeated runs on a controlled exit
// node.
type ValidationRow struct {
	// CountryCode locates the planted exit node.
	CountryCode string
	// EstimatedMs and TruthMs are medians across the runs.
	EstimatedMs float64
	TruthMs     float64
}

// DifferenceMs is |estimate - truth|, the paper's reported error.
func (r ValidationRow) DifferenceMs() float64 {
	d := r.EstimatedMs - r.TruthMs
	if d < 0 {
		d = -d
	}
	return d
}

// ValidateDoH reproduces the Table-1 experiment: for each country,
// plant an exit node, run the DoH measurement `runs` times against
// provider, and compare the Equation-7 estimate with the simulator's
// ground truth. It returns one row per country for t_DoH and one for
// t_DoHR.
func ValidateDoH(sim *proxynet.Sim, provider anycast.ProviderID, countries []string, runs int) (doh, dohr []ValidationRow, err error) {
	for _, code := range countries {
		node, err := sim.PlantGroundTruthNode(code)
		if err != nil {
			return nil, nil, fmt.Errorf("core: validation in %s: %w", code, err)
		}
		var estDoH, truthDoH, estDoHR, truthDoHR []float64
		for i := 0; i < runs; i++ {
			obs, gt := sim.MeasureDoH(node, provider, fmt.Sprintf("gt-%s-%d.a.com.", code, i))
			est, err := EstimateDoH(obs)
			if err != nil {
				continue // the campaign also drops implausible runs
			}
			estDoH = append(estDoH, ms(est.TDoH))
			truthDoH = append(truthDoH, ms(gt.TDoH))
			estDoHR = append(estDoHR, ms(est.TDoHR))
			truthDoHR = append(truthDoHR, ms(gt.TDoHR))
		}
		if len(estDoH) == 0 {
			// A row of zeros would read as a perfect estimate.
			return nil, nil, fmt.Errorf("core: validation in %s: no plausible measurement in %d runs", code, runs)
		}
		doh = append(doh, ValidationRow{
			CountryCode: code, EstimatedMs: stats.MustMedian(estDoH), TruthMs: stats.MustMedian(truthDoH),
		})
		dohr = append(dohr, ValidationRow{
			CountryCode: code, EstimatedMs: stats.MustMedian(estDoHR), TruthMs: stats.MustMedian(truthDoHR),
		})
	}
	return doh, dohr, nil
}

// ValidateDo53 reproduces the Table-2 experiment for countries where
// Do53 measurement is possible (outside the 11 Super-Proxy countries).
func ValidateDo53(sim *proxynet.Sim, countries []string, runs int) ([]ValidationRow, error) {
	var rows []ValidationRow
	for _, code := range countries {
		node, err := sim.PlantGroundTruthNode(code)
		if err != nil {
			return nil, fmt.Errorf("core: validation in %s: %w", code, err)
		}
		var est, truth []float64
		for i := 0; i < runs; i++ {
			obs, gt := sim.MeasureDo53(node, fmt.Sprintf("gt53-%s-%d.a.com.", code, i))
			v, err := EstimateDo53(obs)
			if err != nil {
				return nil, fmt.Errorf("core: Do53 not measurable in %s: %w", code, err)
			}
			est = append(est, ms(v))
			truth = append(truth, ms(gt.TDo53))
		}
		rows = append(rows, ValidationRow{
			CountryCode: code, EstimatedMs: stats.MustMedian(est), TruthMs: stats.MustMedian(truth),
		})
	}
	return rows, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
