// Package experiments regenerates every table and figure of the
// paper's evaluation from a measurement campaign: Tables 1-6 and
// Figures 3-9. Each generator returns a Report containing the same
// rows or series the paper prints; cmd/worldstudy renders them, and
// the benchmark harness in the repository root times them.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/anycast"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/proxynet"
	"repro/internal/stats"
	"repro/internal/world"
)

// Report is one regenerated table or figure.
type Report struct {
	// ID is the paper artifact ("Table 1", "Figure 4", ...).
	ID string
	// Title summarizes the artifact.
	Title string
	// Lines are the rendered rows/series.
	Lines []string
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Suite owns a campaign dataset and reproduces the paper's artifacts
// from it.
type Suite struct {
	// Config echoes the campaign configuration.
	Config campaign.Config
	// Dataset is the collected data.
	Dataset *campaign.Dataset
	// Analysis is the prepared analysis over the dataset.
	Analysis *analysis.Analysis
	// MinClients is the per-country inclusion bar.
	MinClients int
}

// NewSuiteContext runs the campaign and prepares the analysis. When
// ctx is canceled mid-campaign the partially-measured dataset is still
// wrapped in a Suite and returned alongside the context error, so the
// caller can flush what was collected before exiting.
func NewSuiteContext(ctx context.Context, cfg campaign.Config, minClients int) (*Suite, error) {
	ds, err := campaign.RunContext(ctx, cfg)
	if ds == nil {
		return nil, err
	}
	return &Suite{
		Config:     cfg,
		Dataset:    ds,
		Analysis:   analysis.New(ds, minClients),
		MinClients: minClients,
	}, err
}

// Table1 reproduces the ground-truth DoH/DoHR validation: planted
// exit nodes in six countries, median estimate vs median truth.
func (s *Suite) Table1() (*Report, error) {
	sim := proxynet.NewSim(s.Config.Seed + 101)
	countries := []string{"IE", "BR", "SE", "IT", "IN", "US"}
	doh, dohr, err := core.ValidateDoH(sim, anycast.Cloudflare, countries, 30)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "Table 1", Title: "Ground-truth experiments for DoH and DoHR (ms, medians of 30 runs)"}
	rep.Lines = append(rep.Lines, fmt.Sprintf("%-12s %8s %8s %8s | %8s %8s %8s",
		"Country", "DoH est", "DoH true", "diff", "DoHR est", "DoHR true", "diff"))
	for i := range doh {
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-12s %8.0f %8.0f %8.1f | %8.0f %8.0f %8.1f",
			doh[i].CountryCode,
			doh[i].EstimatedMs, doh[i].TruthMs, doh[i].DifferenceMs(),
			dohr[i].EstimatedMs, dohr[i].TruthMs, dohr[i].DifferenceMs()))
	}
	return rep, nil
}

// Table2 reproduces the ground-truth Do53 validation in the four
// countries where the proxy network can measure Do53.
func (s *Suite) Table2() (*Report, error) {
	sim := proxynet.NewSim(s.Config.Seed + 102)
	rows, err := core.ValidateDo53(sim, []string{"IE", "BR", "SE", "IT"}, 30)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "Table 2", Title: "Ground-truth experiments for Do53 (ms, medians of 30 runs)"}
	rep.Lines = append(rep.Lines, fmt.Sprintf("%-12s %10s %12s %8s", "Country", "Our Method", "Ground-Truth", "Diff"))
	for _, r := range rows {
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-12s %10.0f %12.0f %8.1f",
			r.CountryCode, r.EstimatedMs, r.TruthMs, r.DifferenceMs()))
	}
	return rep, nil
}

// Table3 reproduces the dataset composition: unique clients and
// countries per resolver.
func (s *Suite) Table3() (*Report, error) {
	rep := &Report{ID: "Table 3", Title: "Dataset composition (clients / countries per resolver)"}
	rep.Lines = append(rep.Lines, fmt.Sprintf("%-16s %10s %10s", "Resolver", "Clients", "Countries"))
	for _, pid := range anycast.ProviderIDs() {
		clients := 0
		countries := map[string]bool{}
		for i := range s.Dataset.Clients {
			c := &s.Dataset.Clients[i]
			if res, _ := c.DoH.Get(pid); res.Valid {
				clients++
				countries[c.CountryCode] = true
			}
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-16s %10d %10d", pid, clients, len(countries)))
	}
	// Do53 row: clients with their own measurement plus those whose
	// countries are covered by the Atlas remedy.
	do53Clients := 0
	do53Countries := map[string]bool{}
	for i := range s.Dataset.Clients {
		c := &s.Dataset.Clients[i]
		if c.Do53Valid {
			do53Clients++
			do53Countries[c.CountryCode] = true
		} else if _, ok := s.Dataset.AtlasDo53Ms[c.CountryCode]; ok {
			do53Clients++
			do53Countries[c.CountryCode] = true
		}
	}
	rep.Lines = append(rep.Lines, fmt.Sprintf("%-16s %10d %10d", "Do53 (Default)", do53Clients, len(do53Countries)))
	// A CSV release carries kept clients only, and ReadCSV leaves its
	// per-transport accounting nil where every run and journal restore
	// has it: its discard count is unknown, not zero.
	if s.Dataset.Transports == nil {
		rep.Lines = append(rep.Lines, "discarded country mismatches: not in a CSV release")
		return rep, nil
	}
	rep.Lines = append(rep.Lines, fmt.Sprintf("discarded country mismatches: %d (%.2f%%)",
		s.Dataset.DiscardedMismatch,
		100*float64(s.Dataset.DiscardedMismatch)/float64(len(s.Dataset.Clients)+s.Dataset.DiscardedMismatch)))
	return rep, nil
}

// Table4 reproduces the logistic model of DoH vs Do53 slowdowns.
func (s *Suite) Table4() (*Report, error) {
	ns := []int{1, 10, 100, 1000}
	results, err := s.Analysis.FitLogistic(ns)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "Table 4", Title: "Modeling DoH vs Do53 slowdowns (odds ratios; control: fast/high/above-median/Cloudflare)"}
	rep.Lines = append(rep.Lines, fmt.Sprintf("%-28s %7s %7s %7s %7s", "Variable", "OR", "OR_10", "OR_100", "OR_1000"))
	for _, r := range results {
		mark := ""
		if r.P[1] >= 0.001 {
			mark = "*" // not significant at the paper's p < 0.001
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-28s %6.2fx %6.2fx %6.2fx %6.2fx%s",
			r.Variable, r.OddsRatio[1], r.OddsRatio[10], r.OddsRatio[100], r.OddsRatio[1000], mark))
	}
	if med, err := s.Analysis.GlobalMedianMultiplier(1); err == nil {
		m10, _ := s.Analysis.GlobalMedianMultiplier(10)
		m100, _ := s.Analysis.GlobalMedianMultiplier(100)
		m1000, _ := s.Analysis.GlobalMedianMultiplier(1000)
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"global median multipliers: %.2fx %.2fx %.2fx %.2fx (paper: 1.84 1.24 1.18 1.17)",
			med, m10, m100, m1000))
	}
	return rep, nil
}

func renderLinear(rep *Report, label string, models []analysis.LinearModelResult) {
	for _, m := range models {
		rep.Lines = append(rep.Lines, fmt.Sprintf("--- %s (N=%d, n=%d, R2=%.3f) ---", label, m.N, m.NObs, m.R2))
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-20s %12s %14s", "Metric", "Coef (ms)", "Scaled (ms)"))
		for _, r := range m.Rows {
			mark := ""
			if r.P >= 0.001 {
				mark = "*"
			}
			rep.Lines = append(rep.Lines, fmt.Sprintf("%-20s %12.4g %14.1f%s", r.Metric, r.Coef, r.ScaledCoef, mark))
		}
	}
}

// Table5 reproduces the aggregate linear model of the Do53-to-DoH
// delta for 1, 10, and 100 requests.
func (s *Suite) Table5() (*Report, error) {
	models, err := analysis.FitLinear(s.Analysis.Rows(), []int{1, 10, 100})
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "Table 5", Title: "Linear modeling of DNS performance (delta = DoHN - Do53, ms; * = not significant at p<0.001)"}
	renderLinear(rep, "Delta", models)
	return rep, nil
}

// Table6 reproduces the per-resolver linear models (delta at N=1).
func (s *Suite) Table6() (*Report, error) {
	rep := &Report{ID: "Table 6", Title: "Linear modeling of DNS performance by resolver (delta at N=1)"}
	for _, pid := range anycast.ProviderIDs() {
		models, err := analysis.FitLinear(s.Analysis.RowsForProvider(pid), []int{1})
		if err != nil {
			return nil, fmt.Errorf("experiments: table 6 %s: %w", pid, err)
		}
		renderLinear(rep, string(pid), models)
	}
	return rep, nil
}

// Figure3 reproduces the clients-per-country distribution.
func (s *Suite) Figure3() (*Report, error) {
	byCountry := s.Dataset.ClientsByCountry()
	var counts []float64
	for _, code := range s.Analysis.AnalyzedCountryCodes() {
		counts = append(counts, float64(len(byCountry[code])))
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("experiments: no analyzed countries")
	}
	rep := &Report{ID: "Figure 3", Title: "Clients per country (analyzed countries)"}
	med := stats.MustMedian(counts)
	p90, _ := stats.Quantile(counts, 0.9)
	min, _ := stats.Quantile(counts, 0)
	max, _ := stats.Quantile(counts, 1)
	over200 := 0
	for _, c := range counts {
		if c >= 200 {
			over200++
		}
	}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("analyzed countries: %d", len(counts)),
		fmt.Sprintf("clients/country: min=%.0f median=%.0f p90=%.0f max=%.0f", min, med, p90, max),
		fmt.Sprintf("countries with >= 200 clients: %d (%.0f%%)", over200, 100*float64(over200)/float64(len(counts))),
		fmt.Sprintf("total clients: %d", len(s.Dataset.Clients)))
	return rep, nil
}

// cdfQuantiles renders one CDF series as its key quantiles.
func cdfQuantiles(name string, vals []float64) string {
	if len(vals) == 0 {
		return fmt.Sprintf("%-22s (no data)", name)
	}
	q := func(p float64) float64 {
		v, _ := stats.Quantile(vals, p)
		return v
	}
	return fmt.Sprintf("%-22s p10=%6.0f p25=%6.0f p50=%6.0f p75=%6.0f p90=%6.0f",
		name, q(0.10), q(0.25), q(0.50), q(0.75), q(0.90))
}

// Figure4 reproduces the resolution-time CDFs per resolver.
func (s *Suite) Figure4() (*Report, error) {
	doh1, dohr, do53 := s.Analysis.ResolverDistributions()
	rep := &Report{ID: "Figure 4", Title: "Resolution times by resolver (ms quantiles of the CDFs)"}
	for _, pid := range anycast.ProviderIDs() {
		rep.Lines = append(rep.Lines, cdfQuantiles(string(pid)+" DoH1", doh1[pid]))
		rep.Lines = append(rep.Lines, cdfQuantiles(string(pid)+" DoHR", dohr[pid]))
	}
	rep.Lines = append(rep.Lines, cdfQuantiles("Do53 (default)", do53))
	return rep, nil
}

// Figure5 reproduces the per-country medians and the PoP census.
func (s *Suite) Figure5() (*Report, error) {
	med := s.Analysis.CountryMedianDoH1()
	pops := s.Analysis.ObservedPoPs()
	rep := &Report{ID: "Figure 5", Title: "DNS resolution times and points of presence"}
	for _, pid := range anycast.ProviderIDs() {
		byCountry := med[pid]
		type kv struct {
			code string
			ms   float64
		}
		var all []kv
		for code, v := range byCountry {
			all = append(all, kv{code, v})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].ms < all[j].ms })
		if len(all) == 0 {
			continue
		}
		fastest := all[:min(3, len(all))]
		slowest := all[max(0, len(all)-3):]
		line := fmt.Sprintf("%-11s PoPs=%3d  fastest:", pid, pops[pid])
		for _, e := range fastest {
			line += fmt.Sprintf(" %s=%.0fms", e.code, e.ms)
		}
		line += "  slowest:"
		for _, e := range slowest {
			line += fmt.Sprintf(" %s=%.0fms", e.code, e.ms)
		}
		rep.Lines = append(rep.Lines, line)
	}
	// Country-level medians (paper §5.3: DoH1 564.7 ms, Do53 332.9 ms).
	var countryDoH1, countryDo53 []float64
	for _, code := range s.Analysis.AnalyzedCountryCodes() {
		var all []float64
		for _, pid := range anycast.ProviderIDs() {
			if v, ok := med[pid][code]; ok {
				all = append(all, v)
			}
		}
		if len(all) > 0 {
			countryDoH1 = append(countryDoH1, stats.MustMedian(all))
		}
		if v, ok := s.Dataset.CountryDo53Ms(code); ok {
			countryDo53 = append(countryDo53, v)
		}
	}
	if len(countryDoH1) > 0 && len(countryDo53) > 0 {
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"median country: DoH1=%.1fms Do53=%.1fms (paper: 564.7 / 332.9)",
			stats.MustMedian(countryDoH1), stats.MustMedian(countryDo53)))
	}
	return rep, nil
}

// Figure6 reproduces the potential-improvement CDFs.
func (s *Suite) Figure6() (*Report, error) {
	imp := s.Analysis.PotentialImprovementMiles()
	rep := &Report{ID: "Figure 6", Title: "Potential improvement in distance to DoH PoP (miles)"}
	for _, pid := range anycast.ProviderIDs() {
		vals := imp[pid]
		if len(vals) == 0 {
			continue
		}
		medV := stats.MustMedian(vals)
		over1000 := 0
		for _, v := range vals {
			if v >= 1000 {
				over1000++
			}
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-11s median=%6.0f mi  clients >=1000 mi: %4.1f%%",
			pid, medV, 100*float64(over1000)/float64(len(vals))))
	}
	return rep, nil
}

// Figure7 reproduces the per-country delta distributions by resolver.
func (s *Suite) Figure7() (*Report, error) {
	deltas := s.Analysis.CountryDelta(10)
	rep := &Report{ID: "Figure 7", Title: "DNS performance change by DoH resolver (country median delta at DoH10, ms)"}
	for _, pid := range anycast.ProviderIDs() {
		var vals []float64
		for _, d := range deltas[pid] {
			vals = append(vals, d)
		}
		if len(vals) == 0 {
			continue
		}
		medV := stats.MustMedian(vals)
		faster := 0
		for _, v := range vals {
			if v < 0 {
				faster++
			}
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"%-11s median country delta=%7.1f ms  countries speeding up: %4.1f%%",
			pid, medV, 100*float64(faster)/float64(len(vals))))
	}
	rep.Lines = append(rep.Lines, fmt.Sprintf("clients speeding up at DoH1: %.1f%% (paper: 19.1%%)",
		100*s.Analysis.SpeedupShare(1)))
	rep.Lines = append(rep.Lines, fmt.Sprintf("countries speeding up at DoH1: %.1f%% (paper: 8.8%%)",
		100*s.Analysis.CountrySpeedupShare(1)))
	return rep, nil
}

// Figure8 reproduces the client map as per-region counts.
func (s *Suite) Figure8() (*Report, error) {
	byRegion := map[world.Region]int{}
	prefixes := map[string]bool{}
	for i := range s.Dataset.Clients {
		c := &s.Dataset.Clients[i]
		ct := world.MustByCode(c.CountryCode)
		byRegion[ct.Region]++
		prefixes[c.Prefix] = true
	}
	rep := &Report{ID: "Figure 8", Title: "Clients in our dataset (per-region counts; clients keyed by /24)"}
	var regions []string
	for r := range byRegion {
		regions = append(regions, string(r))
	}
	sort.Strings(regions)
	for _, r := range regions {
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-14s %6d clients", r, byRegion[world.Region(r)]))
	}
	rep.Lines = append(rep.Lines, fmt.Sprintf("unique /24 prefixes: %d", len(prefixes)))
	return rep, nil
}

// Figure9 reproduces the per-client distance to the servicing PoP,
// with the distance-latency correlation that motivates the paper's
// Table-5 resolver-distance covariate.
func (s *Suite) Figure9() (*Report, error) {
	dist := s.Analysis.ClientPoPDistanceMiles()
	rep := &Report{ID: "Figure 9", Title: "Per-client distance to servicing DoH PoP (miles)"}
	for _, pid := range anycast.ProviderIDs() {
		line := cdfQuantiles(string(pid), dist[pid])
		if r, err := s.Analysis.DistanceLatencyCorrelation(pid); err == nil {
			line += fmt.Sprintf("  corr(dist,DoHR)=%.2f", r)
		}
		rep.Lines = append(rep.Lines, line)
	}
	return rep, nil
}

// generator names the report a Suite method renders.
type generator struct {
	id string
	fn func() (*Report, error)
}

// paper is the paper's artifacts in paper order.
func (s *Suite) paper() []generator {
	return []generator{
		{"Table 1", s.Table1}, {"Table 2", s.Table2}, {"Table 3", s.Table3},
		{"Figure 3", s.Figure3}, {"Figure 4", s.Figure4}, {"Figure 5", s.Figure5},
		{"Figure 6", s.Figure6}, {"Figure 7", s.Figure7},
		{"Table 4", s.Table4}, {"Table 5", s.Table5}, {"Table 6", s.Table6},
		{"Figure 8", s.Figure8}, {"Figure 9", s.Figure9},
	}
}

// render runs gens in order.
func render(gens []generator) ([]*Report, error) {
	var out []*Report
	for _, g := range gens {
		rep, err := g.fn()
		if errors.Is(err, stats.ErrRankDeficient) { // a small study's few countries
			rep, err = &Report{ID: g.id, Title: "no fit", Lines: []string{err.Error()}}, nil
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", g.id, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// All regenerates every artifact in paper order.
func (s *Suite) All() ([]*Report, error) { return render(s.paper()) }

// IDs returns the IDs of the reports All returns, in its order,
// followed with extensions by those of AllExtensions. Nothing renders.
func IDs(extensions bool) []string {
	var s *Suite
	gens := s.paper()
	if extensions {
		gens = append(gens, s.extensions()...)
	}
	ids := make([]string, len(gens))
	for i, g := range gens {
		ids[i] = g.id
	}
	return ids
}
