// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md §4), plus ablation benches for
// the design choices DESIGN.md §5 calls out. Each table/figure bench
// regenerates the artifact from a shared campaign dataset and reports
// a domain metric via b.ReportMetric so the regenerated numbers are
// visible in benchmark output:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/anycast"
	"repro/internal/cachestudy"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/experiments"
	"repro/internal/proxynet"
	"repro/internal/stats"
	"repro/internal/webload"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

// benchSuite runs one mid-scale campaign shared by every bench.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		cfg := campaign.DefaultConfig(2021)
		cfg.ClientScale = 0.5
		cfg.AtlasProbes = 10
		suite, suiteErr = experiments.NewSuite(cfg, 5)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

func reportLines(b *testing.B, rep *experiments.Report) {
	b.Helper()
	if len(rep.Lines) == 0 {
		b.Fatalf("%s produced no rows", rep.ID)
	}
}

// BenchmarkTable1GroundTruthDoH regenerates Table 1 and reports the
// worst estimator error in milliseconds (paper: <= 8 ms).
func BenchmarkTable1GroundTruthDoH(b *testing.B) {
	s := benchSuite(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		rep, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
		sim := proxynet.NewSim(int64(1000 + i))
		doh, dohr, err := core.ValidateDoH(sim, anycast.Cloudflare,
			[]string{"IE", "BR", "SE", "IT", "IN", "US"}, 10)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for j := range doh {
			worst = math.Max(worst, math.Max(doh[j].DifferenceMs(), dohr[j].DifferenceMs()))
		}
	}
	b.ReportMetric(worst, "worst-err-ms")
}

// BenchmarkTable2GroundTruthDo53 regenerates Table 2; the Do53 header
// is exact by construction, so the reported error is ~0.
func BenchmarkTable2GroundTruthDo53(b *testing.B) {
	s := benchSuite(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		rep, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
		sim := proxynet.NewSim(int64(2000 + i))
		rows, err := core.ValidateDo53(sim, []string{"IE", "BR", "SE", "IT"}, 10)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			worst = math.Max(worst, r.DifferenceMs())
		}
	}
	b.ReportMetric(worst, "worst-err-ms")
}

// BenchmarkTable3Dataset regenerates the dataset composition table.
func BenchmarkTable3Dataset(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rep, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
	}
	b.ReportMetric(float64(len(s.Dataset.Clients)), "clients")
	b.ReportMetric(float64(len(s.Analysis.AnalyzedCountryCodes())), "countries")
}

// BenchmarkTable4Logistic fits the logistic slowdown model for
// N in {1,10,100,1000} and reports the slow-bandwidth odds ratio
// (paper: 1.81x at N=1).
func BenchmarkTable4Logistic(b *testing.B) {
	s := benchSuite(b)
	var or float64
	for i := 0; i < b.N; i++ {
		results, err := s.Analysis.FitLogistic([]int{1, 10, 100, 1000})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Variable == "Bandwidth: Slow" {
				or = r.OddsRatio[1]
			}
		}
	}
	b.ReportMetric(or, "slow-bw-OR")
}

// BenchmarkTable5Linear fits the aggregate linear delta model and
// reports the scaled bandwidth coefficient (paper: -134.5 ms).
func BenchmarkTable5Linear(b *testing.B) {
	s := benchSuite(b)
	var coef float64
	for i := 0; i < b.N; i++ {
		models, err := analysis.FitLinear(s.Analysis.Rows(), []int{1, 10, 100})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range models[0].Rows {
			if r.Metric == "Bandwidth" {
				coef = r.ScaledCoef
			}
		}
	}
	b.ReportMetric(coef, "scaled-bw-ms")
}

// BenchmarkTable6PerResolver fits the per-provider linear models.
func BenchmarkTable6PerResolver(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rep, err := s.Table6()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
	}
}

// BenchmarkFigure3ClientsPerCountry regenerates the clients-per-
// country distribution and reports the median (paper: 103).
func BenchmarkFigure3ClientsPerCountry(b *testing.B) {
	s := benchSuite(b)
	var med float64
	for i := 0; i < b.N; i++ {
		rep, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
		byCountry := s.Dataset.ClientsByCountry()
		var counts []float64
		for _, code := range s.Analysis.AnalyzedCountryCodes() {
			counts = append(counts, float64(len(byCountry[code])))
		}
		med = stats.MustMedian(counts)
	}
	b.ReportMetric(med, "median-clients")
}

// BenchmarkFigure4CDFs regenerates the resolution-time CDFs and
// reports the global medians (paper: Do53 234 ms, Cloudflare DoH1
// 338 ms).
func BenchmarkFigure4CDFs(b *testing.B) {
	s := benchSuite(b)
	var cfDoH1, do53Med float64
	for i := 0; i < b.N; i++ {
		rep, err := s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
		doh1, _, do53 := s.Analysis.ResolverDistributions()
		cfDoH1 = stats.MustMedian(doh1[anycast.Cloudflare])
		do53Med = stats.MustMedian(do53)
	}
	b.ReportMetric(cfDoH1, "cf-doh1-ms")
	b.ReportMetric(do53Med, "do53-ms")
}

// BenchmarkFigure5CountryMedians regenerates the per-country medians
// and PoP census, reporting observed Cloudflare PoPs (paper: 146).
func BenchmarkFigure5CountryMedians(b *testing.B) {
	s := benchSuite(b)
	var pops float64
	for i := 0; i < b.N; i++ {
		rep, err := s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
		pops = float64(s.Analysis.ObservedPoPs()[anycast.Cloudflare])
	}
	b.ReportMetric(pops, "cf-pops")
}

// BenchmarkFigure6PotentialImprovement regenerates the potential-
// improvement CDFs, reporting the Quad9 median in miles (paper: 769).
func BenchmarkFigure6PotentialImprovement(b *testing.B) {
	s := benchSuite(b)
	var q9 float64
	for i := 0; i < b.N; i++ {
		rep, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
		q9 = stats.MustMedian(s.Analysis.PotentialImprovementMiles()[anycast.Quad9])
	}
	b.ReportMetric(q9, "quad9-median-mi")
}

// BenchmarkFigure7DeltaByResolver regenerates the per-country delta
// figure, reporting Cloudflare's median-country delta at DoH10
// (paper: 49.65 ms).
func BenchmarkFigure7DeltaByResolver(b *testing.B) {
	s := benchSuite(b)
	var cf float64
	for i := 0; i < b.N; i++ {
		rep, err := s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
		var vals []float64
		for _, d := range s.Analysis.CountryDelta(10)[anycast.Cloudflare] {
			vals = append(vals, d)
		}
		cf = stats.MustMedian(vals)
	}
	b.ReportMetric(cf, "cf-delta10-ms")
}

// BenchmarkFigure8ClientMap regenerates the client map summary.
func BenchmarkFigure8ClientMap(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rep, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
	}
}

// BenchmarkFigure9ClientPoPDistance regenerates the per-client
// PoP-distance distributions.
func BenchmarkFigure9ClientPoPDistance(b *testing.B) {
	s := benchSuite(b)
	var q9 float64
	for i := 0; i < b.N; i++ {
		rep, err := s.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
		q9 = stats.MustMedian(s.Analysis.ClientPoPDistanceMiles()[anycast.Quad9])
	}
	b.ReportMetric(q9, "quad9-median-mi")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationJitter sweeps the per-packet jitter and reports
// the estimator's median error at each level, quantifying how far the
// stable-RTT assumption can be pushed.
func BenchmarkAblationJitter(b *testing.B) {
	for _, sigma := range []float64{0, 0.01, 0.03, 0.08} {
		b.Run(fmt.Sprintf("packetSigma=%.2f", sigma), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				sim := proxynet.NewSim(31)
				sim.Model.PacketSigma = sigma
				sim.Model.LossProb = 0
				node, err := sim.PlantGroundTruthNode("IT")
				if err != nil {
					b.Fatal(err)
				}
				var errs []float64
				for j := 0; j < 10; j++ {
					obs, gt := sim.MeasureDoH(node, anycast.Cloudflare, "abl.a.com.")
					est, err := core.EstimateDoH(obs)
					if err != nil {
						continue
					}
					errs = append(errs, math.Abs(float64(est.TDoH-gt.TDoH))/1e6)
				}
				worst = stats.MustMedian(errs)
			}
			b.ReportMetric(worst, "median-err-ms")
		})
	}
}

// BenchmarkAblationRouting sweeps the anycast misroute probability
// and reports the resulting median potential improvement — the design
// lever behind the Cloudflare/Quad9 contrast in Figure 6.
func BenchmarkAblationRouting(b *testing.B) {
	for _, prob := range []float64{0, 0.25, 0.5, 0.75} {
		b.Run(fmt.Sprintf("misroute=%.2f", prob), func(b *testing.B) {
			var med float64
			for i := 0; i < b.N; i++ {
				sim := proxynet.NewSim(32)
				p := *sim.Providers[anycast.Cloudflare]
				p.MisrouteProb = prob
				sim.Providers[anycast.Cloudflare] = &p
				var improvements []float64
				for j := 0; j < 300; j++ {
					node, err := sim.SelectExitNode([]string{"BR", "IT", "ZA", "TH", "PL", "EG"}[j%6])
					if err != nil {
						b.Fatal(err)
					}
					_, gt := sim.MeasureDoH(node, anycast.Cloudflare, "abl.a.com.")
					improvements = append(improvements, (gt.PoPDistanceKm-gt.NearestPoPDistanceKm)/1.609344)
				}
				med = stats.MustMedian(improvements)
			}
			b.ReportMetric(med, "median-improve-mi")
		})
	}
}

// BenchmarkAblationReuse sweeps connection reuse N and reports the
// amortized per-query multiplier over Do53.
func BenchmarkAblationReuse(b *testing.B) {
	s := benchSuite(b)
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var mult float64
			for i := 0; i < b.N; i++ {
				m, err := s.Analysis.GlobalMedianMultiplier(n)
				if err != nil {
					b.Fatal(err)
				}
				mult = m
			}
			b.ReportMetric(mult, "multiplier")
		})
	}
}

// BenchmarkAblationCache contrasts the paper's forced cache-miss
// methodology with cache-hit performance: resolving unique names vs
// a repeated name against the caching recursive resolver.
func BenchmarkAblationCache(b *testing.B) {
	b.Run("miss-unique-names", func(b *testing.B) {
		sim := proxynet.NewSim(33)
		node, err := sim.SelectExitNode("DE")
		if err != nil {
			b.Fatal(err)
		}
		var total time.Duration
		for i := 0; i < b.N; i++ {
			_, gt := sim.MeasureDo53(node, fmt.Sprintf("m%d.a.com.", i))
			total += gt.TDo53
		}
		b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "mean-ms")
	})
	b.Run("hit-cached-name", func(b *testing.B) {
		// A cache hit skips the recursion leg entirely: only the
		// exit-to-resolver round trip plus a sliver of processing.
		sim := proxynet.NewSim(33)
		node, err := sim.SelectExitNode("DE")
		if err != nil {
			b.Fatal(err)
		}
		var total time.Duration
		for i := 0; i < b.N; i++ {
			path := sim.Model.NewPath(sim.Rand, node.Endpoint, node.ResolverEndpoint)
			total += path.RTT(sim.Rand) + time.Millisecond
		}
		b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "mean-ms")
	})
}

// --- Substrate micro-benchmarks ---

// BenchmarkDNSWirePack measures message encoding.
func BenchmarkDNSWirePack(b *testing.B) {
	m := dnswire.NewQuery(1, "0123456789abcdef.a.com.", dnswire.TypeA)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDNSWireUnpack measures message decoding.
func BenchmarkDNSWireUnpack(b *testing.B) {
	m := dnswire.NewQuery(1, "0123456789abcdef.a.com.", dnswire.TypeA)
	wire, err := m.Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dnswire.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMeasure times one simulated measurement on a Brazilian exit node
// (the campaign's inner loop); the first call assigns the PoP, before
// the timer starts.
func benchMeasure(b *testing.B, measure func(sim *proxynet.Sim, node *proxynet.ExitNode)) {
	sim := proxynet.NewSim(34)
	node, err := sim.SelectExitNode("BR")
	if err != nil {
		b.Fatal(err)
	}
	measure(sim, node)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure(sim, node)
	}
}

// BenchmarkMeasureDoH measures one full 22-step simulated DoH
// measurement.
func BenchmarkMeasureDoH(b *testing.B) {
	benchMeasure(b, func(sim *proxynet.Sim, node *proxynet.ExitNode) {
		sim.MeasureDoH(node, anycast.Cloudflare, "b.a.com.")
	})
}

// BenchmarkMeasureSession measures one simulated DoT and one simulated
// DoQ measurement.
func BenchmarkMeasureSession(b *testing.B) {
	for name, tr := range map[string]proxynet.Transport{"dot": proxynet.DoT, "doq": proxynet.DoQ} {
		b.Run(name, func(b *testing.B) {
			benchMeasure(b, func(sim *proxynet.Sim, node *proxynet.ExitNode) {
				sim.MeasureSession(tr, node, anycast.Cloudflare, "b.a.com.")
			})
		})
	}
}

// BenchmarkMeasureDo53 measures one simulated Do53 measurement.
func BenchmarkMeasureDo53(b *testing.B) {
	benchMeasure(b, func(sim *proxynet.Sim, node *proxynet.ExitNode) {
		sim.MeasureDo53(node, "b.a.com.")
	})
}

// BenchmarkLogisticFit measures the IRLS fit on campaign-scale data.
func BenchmarkLogisticFit(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Analysis.FitLogistic([]int{1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignSmall measures a small end-to-end campaign.
func BenchmarkCampaignSmall(b *testing.B) {
	cfg := campaign.DefaultConfig(35)
	cfg.Countries = []string{"BR", "IT", "ZA", "TH"}
	cfg.ClientScale = 0.2
	cfg.AtlasProbes = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(35 + i)
		if _, err := campaign.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// sanity keeps the suite import set honest.
var _ = strings.TrimSpace

// --- Extension experiments (paper §7 future work) ---

// BenchmarkExtensionDoT compares Do53/DoT/DoH on identical vantage
// points, reporting the DoT vs DoH first-query medians.
func BenchmarkExtensionDoT(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rep, err := s.ExtensionDoT()
		if err != nil {
			b.Fatal(err)
		}
		reportLines(b, rep)
	}
}

// BenchmarkExtensionCache runs the centralized-vs-distributed cache
// study, reporting both hit ratios.
func BenchmarkExtensionCache(b *testing.B) {
	var dist, cent float64
	for i := 0; i < b.N; i++ {
		results, err := cachestudy.Run(cachestudy.DefaultConfig(51))
		if err != nil {
			b.Fatal(err)
		}
		dist, cent = results[0].HitRatio, results[1].HitRatio
	}
	b.ReportMetric(100*dist, "dist-hit-pct")
	b.ReportMetric(100*cent, "cent-hit-pct")
}

// BenchmarkExtensionWebload runs the page-load impact model and
// reports DNS's share of a Swedish page load under warm DoH.
func BenchmarkExtensionWebload(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		out, err := webload.Run(webload.DefaultConfig(52, "SE"))
		if err != nil {
			b.Fatal(err)
		}
		share = out[2].DNSShare
	}
	b.ReportMetric(100*share, "dns-share-pct")
}

// BenchmarkAblationTLS12 reports the paired extra cost of TLS 1.2
// session establishment.
func BenchmarkAblationTLS12(b *testing.B) {
	var extra float64
	for i := 0; i < b.N; i++ {
		sim := proxynet.NewSim(53)
		var diffs []float64
		for j := 0; j < 40; j++ {
			node, err := sim.SelectExitNode("BR")
			if err != nil {
				b.Fatal(err)
			}
			sim.TLS12 = false
			_, gt13 := sim.MeasureDoH(node, anycast.Cloudflare, "t.a.com.")
			sim.TLS12 = true
			_, gt12 := sim.MeasureDoH(node, anycast.Cloudflare, "t.a.com.")
			diffs = append(diffs, float64(gt12.TDoH-gt13.TDoH)/1e6)
		}
		extra = stats.MustMedian(diffs)
	}
	b.ReportMetric(extra, "tls12-extra-ms")
}
