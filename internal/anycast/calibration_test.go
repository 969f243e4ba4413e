package anycast_test

import (
	"math/rand"
	"testing"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/netsim"
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
