package anycast

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/world"
)

// HostASes returns the distinct ASes the provider's PoPs announce
// from.
func (p *Provider) HostASes() []string {
	seen := map[string]bool{}
	var out []string
	for _, pop := range p.PoPs {
		if !seen[pop.HostAS] {
			seen[pop.HostAS] = true
			out = append(out, pop.HostAS)
		}
	}
	sort.Strings(out)
	return out
}

// PoPCountries returns the distinct countries hosting PoPs.
func (p *Provider) PoPCountries() []string {
	seen := map[string]bool{}
	var out []string
	for _, pop := range p.PoPs {
		if !seen[pop.CountryCode] {
			seen[pop.CountryCode] = true
			out = append(out, pop.CountryCode)
		}
	}
	sort.Strings(out)
	return out
}

func TestCatalogueFleetSizes(t *testing.T) {
	cat := Catalogue()
	if n := len(cat[Cloudflare].PoPs); n != 146 {
		t.Errorf("Cloudflare PoPs = %d, want 146", n)
	}
	if n := len(cat[Google].PoPs); n != 26 {
		t.Errorf("Google PoPs = %d, want 26", n)
	}
	if n := len(cat[NextDNS].PoPs); n != 107 {
		t.Errorf("NextDNS PoPs = %d, want 107", n)
	}
	if n := len(cat[Quad9].PoPs); n < 130 {
		t.Errorf("Quad9 PoPs = %d, want >= 130", n)
	}
}

func TestGoogleHasNoAfricanPoPs(t *testing.T) {
	cat := Catalogue()
	for _, pop := range cat[Google].PoPs {
		ct := world.MustByCode(pop.CountryCode)
		if ct.Region == world.Africa {
			t.Errorf("Google PoP in Africa: %s", pop.ID)
		}
	}
}

func TestQuad9CoversSubSaharanAfrica(t *testing.T) {
	cat := Catalogue()
	count := 0
	for _, code := range cat[Quad9].PoPCountries() {
		if world.MustByCode(code).Region == world.Africa {
			count++
		}
	}
	if count < 20 {
		t.Errorf("Quad9 African PoP countries = %d, want >= 20", count)
	}
	// Quad9 must out-cover every other provider in Africa.
	for _, id := range []ProviderID{Cloudflare, Google, NextDNS} {
		other := 0
		for _, code := range cat[id].PoPCountries() {
			if world.MustByCode(code).Region == world.Africa {
				other++
			}
		}
		if other >= count {
			t.Errorf("%s African coverage (%d) >= Quad9 (%d)", id, other, count)
		}
	}
}

func TestCloudflareOnlyProviderInSenegal(t *testing.T) {
	cat := Catalogue()
	in := func(id ProviderID, code string) bool {
		for _, c := range cat[id].PoPCountries() {
			if c == code {
				return true
			}
		}
		return false
	}
	if !in(Cloudflare, "SN") {
		t.Error("Cloudflare has no PoP in Senegal (paper: it is the only provider there)")
	}
	if in(Google, "SN") {
		t.Error("Google has a PoP in Senegal")
	}
}

func TestNextDNSHostASDiversity(t *testing.T) {
	cat := Catalogue()
	ases := cat[NextDNS].HostASes()
	if len(ases) < 40 {
		t.Errorf("NextDNS host ASes = %d, want >= 40 (paper: 47)", len(ases))
	}
	// It rides Google's and Cloudflare's networks in places.
	found := map[string]bool{}
	for _, as := range ases {
		found[as] = true
	}
	if !found["AS15169"] || !found["AS13335"] {
		t.Error("NextDNS does not include Google/Cloudflare host ASes")
	}
	// The other providers each announce from a single AS.
	if len(cat[Cloudflare].HostASes()) != 1 {
		t.Error("Cloudflare spans multiple ASes")
	}
}

func TestAssignPoPZeroNoiseIsNearest(t *testing.T) {
	p := Catalogue()[Google]
	rng := rand.New(rand.NewSource(1))
	client := world.MustByCode("IT").Centroid
	got := p.AssignPoP(rng, client, &Calibration{})
	want, _ := p.NearestPoP(client)
	if got.ID != want.ID {
		t.Errorf("AssignPoP = %s, nearest = %s", got.ID, want.ID)
	}
}

func TestCatalogueDeterministic(t *testing.T) {
	a := Catalogue()
	b := Catalogue()
	if a[Google] != b[Google] {
		t.Error("Catalogue built the Google fleet twice")
	}
	for _, id := range ProviderIDs() {
		pa, pb := a[id], b[id]
		if len(pa.PoPs) != len(pb.PoPs) {
			t.Fatalf("%s fleet size differs across builds", id)
		}
		for i := range pa.PoPs {
			if pa.PoPs[i] != pb.PoPs[i] {
				t.Fatalf("%s PoP %d differs: %+v vs %+v", id, i, pa.PoPs[i], pb.PoPs[i])
			}
		}
	}
}

func TestPoPPositionsValid(t *testing.T) {
	for id, p := range Catalogue() {
		for _, pop := range p.PoPs {
			if !pop.Pos.Valid() {
				t.Errorf("%s: invalid PoP position %v", id, pop.Pos)
			}
			if pop.CountryCode == "" || pop.ID == "" {
				t.Errorf("%s: incomplete PoP %+v", id, pop)
			}
		}
	}
}

func TestProviderIDsOrder(t *testing.T) {
	ids := ProviderIDs()
	if len(ids) != 4 || ids[0] != Cloudflare || ids[3] != Quad9 {
		t.Errorf("ProviderIDs = %v", ids)
	}
}

// Assign is AssignPoP and NearestPoP in one scan: from the same seed it
// must pick the PoP AssignPoP picks and leave the random stream where
// AssignPoP leaves it, and its two distances must be bit-equal to
// geo.DistanceKm and NearestPoP, with or without a reused scratch.
func TestAssignMatchesAssignPoPAndNearestPoP(t *testing.T) {
	var scratch AssignScratch
	for _, id := range ProviderIDs() {
		p, cal := Catalogue()[id], &testCalibration
		a, b, c := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		for _, ct := range world.All() {
			client := ct.Centroid
			want := p.AssignPoP(a, client, cal)
			got := p.Assign(b, client, cal, &scratch)
			fresh := p.Assign(c, client, cal, nil)
			if got != fresh {
				t.Fatalf("%s/%s: reused scratch gives %+v, fresh %+v", id, ct.Code, got, fresh)
			}
			if got.PoP != want {
				t.Fatalf("%s/%s: Assign picked %s, AssignPoP %s", id, ct.Code, got.PoP.ID, want.ID)
			}
			if d := geo.DistanceKm(client, want.Pos); got.DistanceKm != d {
				t.Errorf("%s/%s: DistanceKm %v, geo.DistanceKm %v", id, ct.Code, got.DistanceKm, d)
			}
			if _, d := p.NearestPoP(client); got.NearestDistanceKm != d {
				t.Errorf("%s/%s: NearestDistanceKm %v, NearestPoP %v", id, ct.Code, got.NearestDistanceKm, d)
			}
			sites := make([]geo.Site, len(p.PoPs))
			for i, pop := range p.PoPs {
				sites[i] = pop.Pos.Site()
			}
			idx, d := geo.Nearest(client.Site(), sites)
			if pop, nd := p.NearestPoP(client); pop != p.PoPs[idx] || nd != d {
				t.Errorf("%s/%s: NearestPoP = %s, %v; geo.Nearest says %s, %v", id, ct.Code, pop.ID, nd, p.PoPs[idx].ID, d)
			}
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Errorf("%s: Assign left the random stream elsewhere than AssignPoP", id)
		}
	}
}

// testCalibration routes with both temperatures, so that Assign's
// tests draw the misroute coin and sample the weights.
var testCalibration = Calibration{RoutingNoiseKm: 150, MisrouteProb: 0.4, MisrouteKm: 2500}

// refAssign is Assign written out without the site table: every
// distance from geo.DistanceKm, every weight from the rule's formula.
func refAssign(rng *rand.Rand, pops []PoP, client geo.Point, cal *Calibration) Assignment {
	dists := make([]float64, len(pops))
	nearest := 0
	for i, pop := range pops {
		if dists[i] = geo.DistanceKm(client, pop.Pos); dists[i] < dists[nearest] {
			nearest = i
		}
	}
	temp, chosen := cal.RoutingNoiseKm, nearest
	if rng.Float64() < cal.MisrouteProb {
		temp = cal.MisrouteKm
	}
	weights, total := make([]float64, len(pops)), 0.0
	for i, d := range dists {
		weights[i] = math.Exp(-(d - dists[nearest]) / temp)
		total += weights[i]
	}
	u := rng.Float64() * total
	for chosen = 0; chosen < len(pops)-1; chosen++ {
		if u -= weights[chosen]; u <= 0 {
			break
		}
	}
	return Assignment{PoP: pops[chosen], DistanceKm: dists[chosen], NearestDistanceKm: dists[nearest]}
}

// Assign over a provider's site table, which newProvider converts once
// for the catalogue and for any other fleet, is refAssign over the
// fleet's own positions, result for result and draw for draw: for the
// catalogue's fleets and for fleets built from moved or resliced PoPs.
func TestSiteTableMatchesProviderLiteral(t *testing.T) {
	for _, id := range ProviderIDs() {
		p := Catalogue()[id]
		moved := append([]PoP(nil), p.PoPs...)
		for i := range moved {
			moved[i].Pos = geo.Point{Lat: -moved[i].Pos.Lat, Lon: moved[i].Pos.Lon / 2}
		}
		for k, pops := range [][]PoP{p.PoPs, moved, p.PoPs[1:], p.PoPs[:len(p.PoPs)-1]} {
			fleet, n := newProvider(id, p.Name, p.Endpoint, pops), 2000
			if k == 0 {
				fleet, n = p, 10000 // the catalogue's own fleet
			}
			clients := rand.New(rand.NewSource(11))
			ra, rb := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			var scratch AssignScratch
			for i := 0; i < n; i++ {
				client := geo.Point{Lat: clients.Float64()*180 - 90, Lon: clients.Float64()*360 - 180}
				if x, y := fleet.Assign(ra, client, &testCalibration, &scratch), refAssign(rb, pops, client, &testCalibration); x != y {
					t.Fatalf("%s (%d PoPs), client %v: %+v, reference %+v", id, len(pops), client, x, y)
				}
			}
			if ra.Int63() != rb.Int63() {
				t.Fatalf("%s (%d PoPs): the random streams ended in different places", id, len(pops))
			}
		}
	}
}
