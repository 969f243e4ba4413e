package experiments

import (
	"fmt"
	"time"

	"repro/internal/anycast"
	"repro/internal/cachestudy"
	"repro/internal/proxynet"
	"repro/internal/stats"
	"repro/internal/webload"
	"repro/internal/world"
)

// Extensions beyond the paper's evaluation, implementing the studies
// its discussion section proposes: a DoT/DoH/Do53 protocol
// comparison, the centralized-vs-distributed cache study, the
// page-load impact model, and the TLS 1.2 legacy-client cost.

// ExtensionDoT compares Do53, DoT, and DoH first-query and
// reused-connection times on the same exit nodes, and reports DoT's
// port-853 blocking rate — the deployment argument (paper §2) for
// why DoH won.
func (s *Suite) ExtensionDoT() (*Report, error) {
	sim := proxynet.NewSim(s.Config.Seed + 201)
	countries := []string{"BR", "IT", "ZA", "TH", "PL", "EG", "CO", "VN", "SE", "NG"}
	var do53s, dot1s, dotRs, doh1s, dohRs []float64
	blocked, attempts := 0, 0
	for _, code := range countries {
		for i := 0; i < 12; i++ {
			node, err := sim.SelectExitNode(code)
			if err != nil {
				return nil, err
			}
			_, gt53 := sim.MeasureDo53(node, "e1.a.com.")
			do53s = append(do53s, ms(gt53.TDo53))
			_, gtDoH := sim.MeasureDoH(node, anycast.Cloudflare, "e2.a.com.")
			doh1s = append(doh1s, ms(gtDoH.TDoH))
			dohRs = append(dohRs, ms(gtDoH.TDoHR))
			obs, gtDoT := sim.MeasureSession(proxynet.DoT, node, anycast.Cloudflare, "e3.a.com.")
			attempts++
			if obs.Blocked {
				blocked++
				continue
			}
			dot1s = append(dot1s, ms(gtDoT.First))
			dotRs = append(dotRs, ms(gtDoT.Reused))
		}
	}
	rep := &Report{ID: "Extension DoT", Title: "Do53 vs DoT vs DoH on identical vantage points (medians, ms)"}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("%-10s %8s %8s", "protocol", "first", "reused"),
		fmt.Sprintf("%-10s %8.0f %8s", "Do53", stats.MustMedian(do53s), "-"),
		fmt.Sprintf("%-10s %8.0f %8.0f", "DoT", stats.MustMedian(dot1s), stats.MustMedian(dotRs)),
		fmt.Sprintf("%-10s %8.0f %8.0f", "DoH", stats.MustMedian(doh1s), stats.MustMedian(dohRs)),
		fmt.Sprintf("DoT sessions blocked on port 853: %.1f%% (DoH on 443: 0%%)",
			100*float64(blocked)/float64(attempts)))
	return rep, nil
}

// ExtensionCache runs the centralized-vs-distributed cache study the
// paper proposes as future work (§7).
func (s *Suite) ExtensionCache() (*Report, error) {
	cfg := cachestudy.DefaultConfig(s.Config.Seed + 202)
	results, err := cachestudy.Run(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "Extension Cache", Title: "Cache-hit study: distributed ISP resolvers vs centralized DoH PoPs (Zipf workload)"}
	for _, r := range results {
		rep.Lines = append(rep.Lines, r.String())
	}
	rep.Lines = append(rep.Lines,
		"the main study forces cache misses with UUID names; this is the hit/miss picture it excludes")
	return rep, nil
}

// ExtensionWebload runs the page-load impact model (§7, "Evaluating
// DoH Performance for Internet Applications") in a well-connected and
// a poorly-connected country.
func (s *Suite) ExtensionWebload() (*Report, error) {
	rep := &Report{ID: "Extension Webload", Title: "Page-load DNS cost: Do53 vs cold/warm DoH"}
	for _, code := range []string{"SE", "BR", "TD"} {
		outcomes, err := webload.Run(webload.DefaultConfig(s.Config.Seed+203, code))
		if err != nil {
			return nil, err
		}
		for _, o := range outcomes {
			rep.Lines = append(rep.Lines, fmt.Sprintf("%-3s %s", code, o))
		}
	}
	return rep, nil
}

// ExtensionTLS12 quantifies the extra cost legacy TLS 1.2 clients pay
// (paper §7, limitations): one more round trip to the PoP per fresh
// connection. Measurements are paired per exit node so jitter cancels.
func (s *Suite) ExtensionTLS12() (*Report, error) {
	sim := proxynet.NewSim(s.Config.Seed + 204)
	var v13s, v12s, diffs []float64
	for _, code := range []string{"BR", "IT", "ZA", "TH", "IN", "AU", "NG", "PL"} {
		for i := 0; i < 15; i++ {
			node, err := sim.SelectExitNode(code)
			if err != nil {
				return nil, err
			}
			sim.TLS12 = false
			_, gt13 := sim.MeasureDoH(node, anycast.Cloudflare, "t.a.com.")
			sim.TLS12 = true
			_, gt12 := sim.MeasureDoH(node, anycast.Cloudflare, "t.a.com.")
			v13s = append(v13s, ms(gt13.TDoH))
			v12s = append(v12s, ms(gt12.TDoH))
			diffs = append(diffs, ms(gt12.TDoH)-ms(gt13.TDoH))
		}
	}
	sim.TLS12 = false
	rep := &Report{ID: "Extension TLS12", Title: "DoH1 under TLS 1.3 vs TLS 1.2 (paired per node)"}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("TLS 1.3 median: %6.0f ms", stats.MustMedian(v13s)),
		fmt.Sprintf("TLS 1.2 median: %6.0f ms", stats.MustMedian(v12s)),
		fmt.Sprintf("median paired extra cost: %+.0f ms (the second handshake round trip)",
			stats.MustMedian(diffs)))
	return rep, nil
}

// ExtensionRegions renders continent-level medians per provider —
// the granularity of Doan et al.'s RIPE-Atlas DoT study that the
// paper contrasts itself against (its point: country-level analysis
// reveals variance that continent-level aggregation hides, for every
// provider including Cloudflare).
func (s *Suite) ExtensionRegions() (*Report, error) {
	rep := &Report{ID: "Extension Regions", Title: "Continent-level medians (the Doan et al. comparison granularity, ms)"}
	regions := []world.Region{
		world.Africa, world.Asia, world.Europe, world.MiddleEast,
		world.NorthAmerica, world.SouthAmerica, world.Oceania,
	}
	for _, pid := range anycast.ProviderIDs() {
		byRegion := s.Analysis.RegionMedians(pid)
		line := fmt.Sprintf("%-11s", pid)
		for _, region := range regions {
			st := byRegion[region]
			line += fmt.Sprintf(" %s=%-5.0f", shortRegion(region), st.DoH1Ms)
		}
		rep.Lines = append(rep.Lines, line)
	}
	// Cross-region spread per provider: the paper finds ALL providers
	// vary heavily across regions.
	for _, pid := range anycast.ProviderIDs() {
		byRegion := s.Analysis.RegionMedians(pid)
		min, max := 1e18, 0.0
		for _, st := range byRegion {
			if st.DoH1Ms <= 0 {
				continue
			}
			if st.DoH1Ms < min {
				min = st.DoH1Ms
			}
			if st.DoH1Ms > max {
				max = st.DoH1Ms
			}
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-11s cross-region spread: %.1fx (fastest %0.0f, slowest %0.0f)",
			pid, max/min, min, max))
	}
	return rep, nil
}

func shortRegion(r world.Region) string {
	switch r {
	case world.Africa:
		return "AF"
	case world.Asia:
		return "AS"
	case world.Europe:
		return "EU"
	case world.MiddleEast:
		return "ME"
	case world.NorthAmerica:
		return "NA"
	case world.SouthAmerica:
		return "SA"
	case world.Oceania:
		return "OC"
	}
	return string(r)
}

// AllExtensions regenerates the extension reports.
func (s *Suite) AllExtensions() ([]*Report, error) {
	type gen struct {
		name string
		fn   func() (*Report, error)
	}
	gens := []gen{
		{"Extension DoT", s.ExtensionDoT},
		{"Extension Cache", s.ExtensionCache},
		{"Extension Webload", s.ExtensionWebload},
		{"Extension TLS12", s.ExtensionTLS12},
		{"Extension Regions", s.ExtensionRegions},
	}
	var out []*Report
	for _, g := range gens {
		rep, err := g.fn()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", g.name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
