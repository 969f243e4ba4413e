package anycast

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/world"
)

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
	cat := Catalogue()
	p := *cat[Google]
	p.RoutingNoiseKm = 0
	rng := rand.New(rand.NewSource(1))
	client := world.MustByCode("IT").Centroid
	got := p.AssignPoP(rng, client)
	want, _ := p.NearestPoP(client)
	if got.ID != want.ID {
		t.Errorf("AssignPoP = %s, nearest = %s", got.ID, want.ID)
	}
}

func TestAssignPoPNoiseCausesDetours(t *testing.T) {
	cat := Catalogue()
	q := cat[Quad9]
	cf := cat[Cloudflare]
	rng := rand.New(rand.NewSource(7))
	detours := func(p *Provider) (sum float64, n int) {
		for _, ct := range world.Analyzed() {
			used := p.AssignPoP(rng, ct.Centroid)
			_, nearest := p.NearestPoP(ct.Centroid)
			sum += geo.DistanceKm(ct.Centroid, used.Pos) - nearest
			n++
		}
		return sum, n
	}
	qSum, qn := detours(q)
	cfSum, cfn := detours(cf)
	qAvg, cfAvg := qSum/float64(qn), cfSum/float64(cfn)
	if qAvg <= cfAvg {
		t.Errorf("Quad9 mean detour %.0f km <= Cloudflare %.0f km; paper says Quad9 routing is far worse", qAvg, cfAvg)
	}
	if qAvg < 300 {
		t.Errorf("Quad9 mean detour %.0f km, want >= 300 (median potential improvement 769 mi)", qAvg)
	}
}

func TestCatalogueDeterministic(t *testing.T) {
	a := Catalogue()
	b := Catalogue()
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
		p := Catalogue()[id]
		a, b, c := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		for _, ct := range world.All() {
			client := ct.Centroid
			want := p.AssignPoP(a, client)
			got := p.Assign(b, client, &scratch)
			fresh := p.Assign(c, client, nil)
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

// literal is p rebuilt as a Provider literal: the same fleet and
// routing, no site table.
func literal(p *Provider, pops []PoP) *Provider {
	return &Provider{
		ID: p.ID, Name: p.Name, Endpoint: p.Endpoint, PoPs: pops,
		RoutingNoiseKm: p.RoutingNoiseKm, MisrouteProb: p.MisrouteProb, MisrouteKm: p.MisrouteKm,
		ServiceTime: p.ServiceTime, SetupOverhead: p.SetupOverhead,
	}
}

// sameAssignments runs Assign for n random clients on a and on b from
// identically seeded streams and fails on the first differing result.
func sameAssignments(t *testing.T, what string, a, b *Provider, n int) {
	t.Helper()
	clients := rand.New(rand.NewSource(11))
	ra, rb := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	var sa, sb AssignScratch
	for i := 0; i < n; i++ {
		client := geo.Point{Lat: clients.Float64()*180 - 90, Lon: clients.Float64()*360 - 180}
		if x, y := a.Assign(ra, client, &sa), b.Assign(rb, client, &sb); x != y {
			t.Fatalf("%s, client %v: %+v vs %+v", what, client, x, y)
		}
	}
	if ra.Int63() != rb.Int63() {
		t.Fatalf("%s: the random streams ended in different places", what)
	}
}

// Assign over the catalogue's precomputed site table is Assign over a
// table-less Provider literal of the same fleet, result for result and
// draw for draw, and a copy whose PoPs were replaced or resliced reads
// its own PoPs, never the table it was copied with.
func TestSiteTableMatchesProviderLiteral(t *testing.T) {
	for _, id := range ProviderIDs() {
		p := Catalogue()[id]
		if p.sites.of(p.PoPs) == nil {
			t.Fatalf("%s: catalogue provider has no site table", id)
		}
		sameAssignments(t, string(id)+" table vs literal", p, literal(p, p.PoPs), 10000)

		moved := append([]PoP(nil), p.PoPs...)
		for i := range moved {
			moved[i].Pos = geo.Point{Lat: -moved[i].Pos.Lat, Lon: moved[i].Pos.Lon / 2}
		}
		cp := *p
		cp.PoPs = moved
		if cp.sites.of(cp.PoPs) != nil {
			t.Fatalf("%s: a copy with replaced PoPs reads the old table", id)
		}
		sameAssignments(t, string(id)+" replaced PoPs", &cp, literal(p, moved), 2000)

		for _, sub := range [][]PoP{p.PoPs[1:], p.PoPs[:len(p.PoPs)-1]} {
			cp := *p
			cp.PoPs = sub
			sameAssignments(t, string(id)+" resliced PoPs", &cp, literal(p, sub), 500)
		}
	}
}

// The catalogue's Providers are shared between callers; the map is not.
func TestCatalogueMapIsTheCallers(t *testing.T) {
	a, b := Catalogue(), Catalogue()
	if a[Google] != b[Google] {
		t.Error("Catalogue built the Google fleet twice")
	}
	p := *a[Google]
	p.RoutingNoiseKm = 0
	a[Google] = &p
	if b[Google].RoutingNoiseKm == 0 || Catalogue()[Google].RoutingNoiseKm == 0 {
		t.Error("replacing one caller's map entry changed another's")
	}
}
