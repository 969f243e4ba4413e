package anycast_test

import (
	"math/rand"
	"testing"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/proxynet"
	"repro/internal/stats"
	"repro/internal/world"
)

// Under the calibrated routing, Quad9's clients detour far more than
// Cloudflare's (Figure 6).
func TestAssignPoPNoiseCausesDetours(t *testing.T) {
	cat, params := anycast.Catalogue(), netsim.DefaultParams()
	rng := rand.New(rand.NewSource(7))
	detours := func(pid anycast.ProviderID) (sum float64, n int) {
		p, cal := cat[pid], params.Providers.Of(pid)
		for _, ct := range world.Analyzed() {
			used := p.AssignPoP(rng, ct.Centroid, cal)
			_, nearest := p.NearestPoP(ct.Centroid)
			sum += geo.DistanceKm(ct.Centroid, used.Pos) - nearest
			n++
		}
		return sum, n
	}
	qSum, qn := detours(anycast.Quad9)
	cfSum, cfn := detours(anycast.Cloudflare)
	qAvg, cfAvg := qSum/float64(qn), cfSum/float64(cfn)
	if qAvg <= cfAvg {
		t.Errorf("Quad9 mean detour %.0f km <= Cloudflare %.0f km; paper says Quad9 routing is far worse", qAvg, cfAvg)
	}
	if qAvg < 300 {
		t.Errorf("Quad9 mean detour %.0f km, want >= 300 (median potential improvement 769 mi)", qAvg)
	}
}

// The routing sweep: misrouting is the lever behind Figure 6's
// Cloudflare/Quad9 contrast. Over 300 measurements from six countries,
// Cloudflare's median potential improvement is exactly 0 without
// misrouting, never falls as the misroute probability rises, and
// reaches Quad9's scale at 0.75. It read 0, 0, 22.6 and 676.6 mi.
func TestMisrouteProbDrivesPotentialImprovement(t *testing.T) {
	prev := 0.0
	for _, prob := range []float64{0, 0.25, 0.5, 0.75} {
		sim := proxynet.NewSim(32)
		sim.Params.Providers.Of(anycast.Cloudflare).MisrouteProb = prob
		var miles []float64
		for j := 0; j < 300; j++ {
			node, err := sim.SelectExitNode([]string{"BR", "IT", "ZA", "TH", "PL", "EG"}[j%6])
			if err != nil {
				t.Fatal(err)
			}
			_, gt := sim.MeasureDoH(node, anycast.Cloudflare, "abl.a.com.")
			miles = append(miles, (gt.PoPDistanceKm-gt.NearestPoPDistanceKm)/1.609344)
		}
		med := stats.MustMedian(miles)
		t.Logf("misroute probability %.2f: median potential improvement %.1f mi", prob, med)
		switch {
		case prob == 0 && med != 0:
			t.Errorf("misroute probability 0: median potential improvement %.1f mi, want exactly 0", med)
		case med < prev:
			t.Errorf("misroute probability %.2f: median potential improvement %.1f mi, below %.1f at the smaller probability", prob, med, prev)
		case prob == 0.75 && med < 500:
			t.Errorf("misroute probability 0.75: median potential improvement %.1f mi, want >= 500", med)
		}
		prev = med
	}
}
