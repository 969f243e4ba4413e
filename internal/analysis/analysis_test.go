package analysis

import (
	"sync"
	"testing"

	"repro/internal/anycast"
	"repro/internal/campaign"
	"repro/internal/stats"
	"repro/internal/world"
)

var (
	once     sync.Once
	shared   *Analysis
	buildErr error
)

// sharedAnalysis runs one mid-size campaign for the whole test
// package (scale 0.4 keeps it fast while covering every country).
func sharedAnalysis(t testing.TB) *Analysis {
	t.Helper()
	once.Do(func() {
		cfg := campaign.DefaultConfig(2021)
		cfg.ClientScale = 0.4
		ds, err := campaign.Run(cfg)
		if err != nil {
			buildErr = err
			return
		}
		shared = New(ds, 4) // lower bar to match the reduced scale
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return shared
}

func TestRowsWellFormed(t *testing.T) {
	a := sharedAnalysis(t)
	rows := a.Rows()
	if len(rows) < 1000 {
		t.Fatalf("rows = %d, want >= 1000", len(rows))
	}
	for _, r := range rows[:100] {
		if r.DoH1Ms <= 0 || r.DoHRMs <= 0 || r.Do53Ms <= 0 {
			t.Fatalf("non-positive times: %+v", r)
		}
		if r.DoHRMs >= r.DoH1Ms {
			t.Errorf("DoHR >= DoH1: %+v", r)
		}
		if world.IsSuperProxyCountry(r.CountryCode) {
			t.Errorf("row from Super-Proxy country %s (no per-client Do53 there)", r.CountryCode)
		}
		if r.Multiplier(1) <= 0 {
			t.Errorf("multiplier = %f", r.Multiplier(1))
		}
		if got := r.DoHNMs(10); got >= r.DoH1Ms || got <= r.DoHRMs {
			t.Errorf("DoH10 = %f outside (DoHR, DoH1) = (%f, %f)", got, r.DoHRMs, r.DoH1Ms)
		}
	}
}

// TestDoHNAmortization pins the paper's DoH_N notation: the first
// query pays DoH1, the other n-1 pay DoHR, so the average falls toward
// DoHR as one connection carries more queries.
func TestDoHNAmortization(t *testing.T) {
	r := Row{DoH1Ms: 400, DoHRMs: 250}
	prev := r.DoH1Ms
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 400}, {1, 400}, // n <= 1 is DoH1
		{10, 265},
		{100, 251.5},
		{1000, 250.15},
	} {
		got := r.DoHNMs(tc.n)
		if got != tc.want {
			t.Errorf("DoHNMs(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 10 && got >= prev {
			t.Errorf("DoHNMs(%d) = %v, not below the previous %v", tc.n, got, prev)
		}
		if got < r.DoHRMs {
			t.Errorf("DoHNMs(%d) = %v below DoHR %v", tc.n, got, r.DoHRMs)
		}
		prev = got
	}
}

func TestProviderOrderingMatchesPaper(t *testing.T) {
	a := sharedAnalysis(t)
	doh1, dohr, do53 := a.ResolverDistributions()
	med := func(xs []float64) float64 { return stats.MustMedian(xs) }

	cf := med(doh1[anycast.Cloudflare])
	gg := med(doh1[anycast.Google])
	nd := med(doh1[anycast.NextDNS])
	q9 := med(doh1[anycast.Quad9])
	t.Logf("DoH1 medians: cloudflare=%.0f google=%.0f quad9=%.0f nextdns=%.0f do53=%.0f",
		cf, gg, q9, nd, med(do53))

	// Paper: Cloudflare 338 < Google 429 < Quad9 447 < NextDNS 467.
	if !(cf < gg && gg < nd) {
		t.Errorf("DoH1 ordering broken: cloudflare=%.0f google=%.0f nextdns=%.0f", cf, gg, nd)
	}
	if cf >= q9 {
		t.Errorf("Cloudflare %.0f >= Quad9 %.0f", cf, q9)
	}
	// DoHR: Cloudflare must be fastest and near Do53.
	cfr := med(dohr[anycast.Cloudflare])
	d53 := med(do53)
	if cfr >= med(dohr[anycast.NextDNS]) {
		t.Error("Cloudflare DoHR not faster than NextDNS DoHR")
	}
	ratio := cfr / d53
	if ratio < 0.5 || ratio > 1.6 {
		t.Errorf("Cloudflare DoHR / Do53 = %.2f, paper has them close (257 vs 250)", ratio)
	}
	// DoH1 must cost more than DoHR everywhere (TLS handshake).
	for _, pid := range anycast.ProviderIDs() {
		if med(doh1[pid]) <= med(dohr[pid]) {
			t.Errorf("%s: DoH1 median <= DoHR median", pid)
		}
	}
}

func TestGlobalMultiplierShape(t *testing.T) {
	a := sharedAnalysis(t)
	m1, err := a.GlobalMedianMultiplier(1)
	if err != nil {
		t.Fatal(err)
	}
	m10, _ := a.GlobalMedianMultiplier(10)
	m100, _ := a.GlobalMedianMultiplier(100)
	m1000, _ := a.GlobalMedianMultiplier(1000)
	t.Logf("multipliers: %0.2f %0.2f %0.2f %0.2f (paper: 1.84 1.24 1.18 1.17)", m1, m10, m100, m1000)
	if !(m1 > m10 && m10 > m100 && m100 >= m1000*0.99) {
		t.Errorf("multipliers not decreasing: %f %f %f %f", m1, m10, m100, m1000)
	}
	if m1 < 1.2 || m1 > 3.0 {
		t.Errorf("median DoH1/Do53 multiplier = %.2f, want in [1.2, 3.0] (paper: 1.84)", m1)
	}
}

func TestSpeedupShares(t *testing.T) {
	a := sharedAnalysis(t)
	clientShare := a.SpeedupShare(1)
	t.Logf("client speedup share at N=1: %.3f (paper: 0.191)", clientShare)
	if clientShare < 0.03 || clientShare > 0.45 {
		t.Errorf("client speedup share = %.3f, want within (0.03, 0.45)", clientShare)
	}
	countryShare := a.CountrySpeedupShare(1)
	t.Logf("country speedup share at N=1: %.3f (paper: 0.088)", countryShare)
	if countryShare > 0.5 {
		t.Errorf("country speedup share = %.3f, most countries must slow down", countryShare)
	}
}

func TestObservedPoPCensus(t *testing.T) {
	a := sharedAnalysis(t)
	pops := a.ObservedPoPs()
	if pops[anycast.Google] >= pops[anycast.Cloudflare] {
		t.Errorf("Google PoPs (%d) >= Cloudflare (%d)", pops[anycast.Google], pops[anycast.Cloudflare])
	}
	if pops[anycast.Google] > 26 {
		t.Errorf("Google observed PoPs = %d, fleet is only 26", pops[anycast.Google])
	}
	if pops[anycast.Cloudflare] < 80 {
		t.Errorf("Cloudflare observed PoPs = %d, want substantial coverage of its 146", pops[anycast.Cloudflare])
	}
}

func TestPotentialImprovementByProvider(t *testing.T) {
	a := sharedAnalysis(t)
	imp := a.PotentialImprovementMiles()
	med := func(pid anycast.ProviderID) float64 { return stats.MustMedian(imp[pid]) }
	q9 := med(anycast.Quad9)
	cf := med(anycast.Cloudflare)
	gg := med(anycast.Google)
	nd := med(anycast.NextDNS)
	t.Logf("median potential improvement (mi): quad9=%.0f cloudflare=%.0f google=%.0f nextdns=%.0f (paper: 769 46 44 6)",
		q9, cf, gg, nd)
	// Quad9 is the outlier by a wide margin.
	if q9 < 3*cf || q9 < 3*gg {
		t.Errorf("Quad9 median improvement %.0f mi not the clear outlier (cf %.0f, gg %.0f)", q9, cf, gg)
	}
	if q9 < 200 {
		t.Errorf("Quad9 median improvement = %.0f mi, want hundreds (paper: 769)", q9)
	}
	if nd > cf+100 {
		t.Errorf("NextDNS median improvement %.0f mi should be small (paper: 6)", nd)
	}
}

func TestCountryDeltaAndMedians(t *testing.T) {
	a := sharedAnalysis(t)
	deltas := a.CountryDelta(10)
	for _, pid := range anycast.ProviderIDs() {
		if len(deltas[pid]) < 20 {
			t.Errorf("%s: only %d countries with deltas", pid, len(deltas[pid]))
		}
	}
	// Cloudflare's median-country delta must be the smallest
	// (paper: 49.65 ms vs NextDNS 159.62 ms).
	medCountry := func(pid anycast.ProviderID) float64 {
		var vals []float64
		for _, d := range deltas[pid] {
			vals = append(vals, d)
		}
		return stats.MustMedian(vals)
	}
	cf, nd := medCountry(anycast.Cloudflare), medCountry(anycast.NextDNS)
	t.Logf("median-country delta at N=10: cloudflare=%.0f nextdns=%.0f", cf, nd)
	if cf >= nd {
		t.Errorf("Cloudflare country delta %.0f >= NextDNS %.0f", cf, nd)
	}

	med := a.CountryMedianDoH1()
	for _, pid := range anycast.ProviderIDs() {
		if len(med[pid]) < 20 {
			t.Errorf("%s: medians for only %d countries", pid, len(med[pid]))
		}
	}
	// Chad must be among the slowest countries (paper: 2011 ms DoH1).
	cfMed := med[anycast.Cloudflare]
	if td, ok := cfMed["TD"]; ok {
		var all []float64
		for _, v := range cfMed {
			all = append(all, v)
		}
		p75, _ := stats.Quantile(all, 0.75)
		if td < p75 {
			t.Errorf("Chad DoH1 median %.0f below p75 %.0f; it must be among the slowest", td, p75)
		}
	}
}

func TestLogisticTable4Shape(t *testing.T) {
	a := sharedAnalysis(t)
	results, err := a.FitLogistic([]int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(LogisticCovariateNames) {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]LogisticResult{}
	for _, r := range results {
		byName[r.Variable] = r
	}
	slow := byName["Bandwidth: Slow"]
	t.Logf("OR slow bandwidth: N1=%.2f N10=%.2f (paper: 1.81, 1.69)", slow.OddsRatio[1], slow.OddsRatio[10])
	if slow.OddsRatio[1] <= 1 {
		t.Errorf("slow-bandwidth OR = %.2f, must exceed 1", slow.OddsRatio[1])
	}
	low := byName["Income: Low"]
	if low.OddsRatio[1] <= 1 {
		t.Errorf("low-income OR = %.2f, must exceed 1", low.OddsRatio[1])
	}
	fewAS := byName["ASes: Lower than median"]
	if fewAS.OddsRatio[1] <= 1 {
		t.Errorf("few-ASes OR = %.2f, must exceed 1", fewAS.OddsRatio[1])
	}
	// Resolver dummies: all worse than Cloudflare.
	for _, name := range []string{"Resolver: Google", "Resolver: NextDNS", "Resolver: Quad9"} {
		if or := byName[name].OddsRatio[1]; or <= 1 {
			t.Errorf("%s OR = %.2f, must exceed 1 (Cloudflare is the control)", name, or)
		}
	}
	// NextDNS should be the worst resolver (paper: 2.25x).
	if byName["Resolver: NextDNS"].OddsRatio[1] <= byName["Resolver: Google"].OddsRatio[1]*0.8 {
		t.Errorf("NextDNS OR (%.2f) should be among the worst (Google %.2f)",
			byName["Resolver: NextDNS"].OddsRatio[1], byName["Resolver: Google"].OddsRatio[1])
	}
	// The key covariates must be statistically significant.
	if slow.P[1] > 0.001 {
		t.Errorf("slow bandwidth p = %g, want < 0.001", slow.P[1])
	}
}

// BenchmarkLogisticFit measures the IRLS fit on campaign-scale data.
func BenchmarkLogisticFit(b *testing.B) {
	a := sharedAnalysis(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.FitLogistic([]int{1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLinearTable5Shape(t *testing.T) {
	a := sharedAnalysis(t)
	models, err := FitLinear(a.Rows(), []int{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 3 {
		t.Fatalf("models = %d", len(models))
	}
	for _, m := range models {
		byName := map[string]LinearResult{}
		for _, r := range m.Rows {
			byName[r.Metric] = r
		}
		// Bandwidth and AS count reduce the delta (negative coefs).
		if byName["Bandwidth"].Coef >= 0 {
			t.Errorf("N=%d: bandwidth coef = %f, want negative", m.N, byName["Bandwidth"].Coef)
		}
		if byName["Num ASes"].Coef >= 0 {
			t.Errorf("N=%d: ASes coef = %f, want negative", m.N, byName["Num ASes"].Coef)
		}
		// Resolver distance increases the delta.
		if byName["Resolver Dist."].Coef <= 0 {
			t.Errorf("N=%d: resolver distance coef = %f, want positive", m.N, byName["Resolver Dist."].Coef)
		}
		if byName["Resolver Dist."].P > 0.001 {
			t.Errorf("N=%d: resolver distance p = %g", m.N, byName["Resolver Dist."].P)
		}
	}
	// Coefficients shrink as connection reuse amortizes the handshake.
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	bw1 := abs(models[0].Rows[1].ScaledCoef)
	bw100 := abs(models[2].Rows[1].ScaledCoef)
	if bw100 >= bw1 {
		t.Errorf("scaled bandwidth coef grew with reuse: N1=%f N100=%f", bw1, bw100)
	}
}

func TestLinearTable6PerProvider(t *testing.T) {
	a := sharedAnalysis(t)
	for _, pid := range anycast.ProviderIDs() {
		rows := a.RowsForProvider(pid)
		if len(rows) < 200 {
			t.Fatalf("%s: %d rows", pid, len(rows))
		}
		models, err := FitLinear(rows, []int{1})
		if err != nil {
			t.Fatalf("%s: %v", pid, err)
		}
		byName := map[string]LinearResult{}
		for _, r := range models[0].Rows {
			byName[r.Metric] = r
		}
		if byName["Bandwidth"].Coef >= 0 {
			t.Errorf("%s: bandwidth coef %f, want negative", pid, byName["Bandwidth"].Coef)
		}
	}
}

// MedianDeltaByPredicate returns the median DoH1-Do53 delta split by a
// country predicate — used for headline comparisons like "clients from
// slow-bandwidth countries see a 350 ms median slowdown vs 112 ms".
func (a *Analysis) MedianDeltaByPredicate(n int, pred func(world.Country) bool) (in, out float64, err error) {
	var yes, no []float64
	for _, r := range a.rows {
		if pred(r.Country) {
			yes = append(yes, r.DeltaMs(n))
		} else {
			no = append(no, r.DeltaMs(n))
		}
	}
	in, err = stats.Median(yes)
	if err != nil {
		return 0, 0, err
	}
	out, err = stats.Median(no)
	return in, out, err
}

func TestMedianDeltaBySlowBandwidth(t *testing.T) {
	a := sharedAnalysis(t)
	slow, fast, err := a.MedianDeltaByPredicate(1, func(ct world.Country) bool { return !ct.Fast() })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("median DoH1 delta: slow-bw=%.0f ms fast-bw=%.0f ms (paper: 350 vs 112)", slow, fast)
	if slow <= fast {
		t.Errorf("slow-bandwidth delta %.0f <= fast %.0f", slow, fast)
	}
}

func TestRegionMediansShape(t *testing.T) {
	a := sharedAnalysis(t)
	regions := a.RegionMedians(anycast.Cloudflare)
	if len(regions) < 5 {
		t.Fatalf("regions = %d, want >= 5", len(regions))
	}
	eu, okEU := regions[world.Europe]
	af, okAF := regions[world.Africa]
	if !okEU || !okAF {
		t.Fatal("missing Europe or Africa")
	}
	if eu.Clients == 0 || af.Clients == 0 {
		t.Fatal("empty regions")
	}
	// The regional variance the paper reports: Africa far slower
	// than Europe on every series.
	if af.DoH1Ms <= eu.DoH1Ms {
		t.Errorf("Africa DoH1 %.0f <= Europe %.0f", af.DoH1Ms, eu.DoH1Ms)
	}
	if af.Do53Ms <= eu.Do53Ms {
		t.Errorf("Africa Do53 %.0f <= Europe %.0f", af.Do53Ms, eu.Do53Ms)
	}
	for region, st := range regions {
		if st.DoH1Ms > 0 && st.DoHRMs >= st.DoH1Ms {
			t.Errorf("%s: DoHR %.0f >= DoH1 %.0f", region, st.DoHRMs, st.DoH1Ms)
		}
	}
}

func TestDistanceLatencyCorrelationPositive(t *testing.T) {
	a := sharedAnalysis(t)
	for _, pid := range anycast.ProviderIDs() {
		r, err := a.DistanceLatencyCorrelation(pid)
		if err != nil {
			t.Fatalf("%s: %v", pid, err)
		}
		t.Logf("%s: corr(PoP distance, DoHR) = %.3f", pid, r)
		if r <= 0.1 {
			t.Errorf("%s: correlation %.3f, want clearly positive (distance must cost latency)", pid, r)
		}
	}
}
