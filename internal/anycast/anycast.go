// Package anycast models the four public DoH resolution services the
// paper compares — Cloudflare, Google, NextDNS, and Quad9 — as fleets
// of points of presence (PoPs) with per-provider placement strategies
// and an anycast assignment model with tunable routing inefficiency.
//
// The placement strategies mirror what the paper observed:
//
//   - Cloudflare: 146 PoPs, the widest geographic spread (the only
//     provider with a PoP in Senegal), low routing noise.
//   - Google: 26 PoPs, centralized in major hubs, none in Africa, but
//     very accurate client-to-PoP assignment.
//   - NextDNS: 107 PoPs hosted across ~47 third-party ASes (including
//     Google's and Cloudflare's), with higher per-query service time.
//   - Quad9: ~150 PoPs including many in Sub-Saharan Africa, but very
//     noisy anycast routing (median client could be 769 miles closer).
package anycast

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/world"
)

// ProviderID identifies a DoH resolution service.
type ProviderID string

// The four providers studied.
const (
	Cloudflare ProviderID = "cloudflare"
	Google     ProviderID = "google"
	NextDNS    ProviderID = "nextdns"
	Quad9      ProviderID = "quad9"
)

// ProviderIDs lists the providers in the paper's order.
func ProviderIDs() []ProviderID {
	ids := providerIDs
	return ids[:]
}

// PoP is one point of presence.
type PoP struct {
	// ID is unique within the provider ("cloudflare-SN-0").
	ID string
	// Provider owns the PoP.
	Provider ProviderID
	// Pos is the PoP location.
	Pos geo.Point
	// CountryCode hosts the PoP.
	CountryCode string
	// HostAS is the autonomous system the PoP announces from. For
	// NextDNS this is a third-party AS.
	HostAS string
}

// Provider is a DoH resolution service.
type Provider struct {
	// ID identifies the service.
	ID ProviderID
	// Name is the display name.
	Name string
	// Endpoint is the public DoH URL template.
	Endpoint string
	// PoPs is the fleet.
	PoPs []PoP
	// RoutingNoiseKm is the anycast catchment temperature in
	// kilometers: PoP selection samples with weight
	// exp(-(dist - distNearest)/RoutingNoiseKm), so providers with
	// sloppy BGP catchments (large values) regularly deliver clients
	// to PoPs far beyond the nearest one. Zero means clients always
	// reach the closest PoP.
	RoutingNoiseKm float64
	// MisrouteProb and MisrouteKm model gross BGP catchment errors: a
	// MisrouteProb fraction of clients is routed with the much larger
	// MisrouteKm temperature instead of RoutingNoiseKm. This produces
	// the bimodal distributions of Figure 6 — most clients
	// near-optimal, yet 26% of Cloudflare clients (and Quad9's median
	// client) land 1,000+ miles from the closest PoP.
	MisrouteProb float64
	MisrouteKm   float64
	// ServiceTime is the per-query processing time inside a PoP
	// (cache lookup, upstream recursion scheduling).
	ServiceTime time.Duration
	// SetupOverhead is extra one-time connection-establishment cost
	// (session setup, intra-provider redirects). NextDNS, riding
	// third-party infrastructure, pays a large one.
	SetupOverhead time.Duration

	// sites is the catalogue fleet's positions in geo.Site form; nil on
	// a Provider literal. A copy of a catalogue Provider carries it, and
	// scan reads it only while it was derived from the copy's PoPs.
	sites *siteTable
}

// siteTable is a fleet's positions converted once for the haversine,
// with the PoPs slice they were converted from.
type siteTable struct {
	pops  []PoP
	sites []geo.Site
}

// appendSites appends each PoP's position in geo.Site form to dst.
func appendSites(dst []geo.Site, pops []PoP) []geo.Site {
	for i := range pops {
		dst = append(dst, pops[i].Pos.Site())
	}
	return dst
}

// of returns t's sites when t was derived from pops itself (the same
// backing array and length), and nil otherwise: a Provider literal, or
// a copy whose PoPs were replaced or resliced, never reads a stale
// table.
func (t *siteTable) of(pops []PoP) []geo.Site {
	if t == nil || len(pops) == 0 || len(t.pops) != len(pops) || &t.pops[0] != &pops[0] {
		return nil
	}
	return t.sites
}

// Assignment is one anycast routing decision and the two distances the
// decision computed on the way.
type Assignment struct {
	// PoP is the point of presence the route delivers the client to.
	PoP PoP
	// DistanceKm is the client's geodesic distance to PoP.
	DistanceKm float64
	// NearestDistanceKm is the distance to the provider's closest PoP
	// (what NearestPoP returns).
	NearestDistanceKm float64
}

// AssignScratch holds Assign's per-PoP work slices so that a caller
// assigning many clients allocates them once. The zero value is ready;
// a scratch serves one goroutine at a time.
type AssignScratch struct {
	dists, weights []float64
	// sites holds the converted PoP positions of a Provider without a
	// table of its own.
	sites []geo.Site
}

// grow returns s resliced to n elements, reallocating only when its
// capacity is short.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// scan fills scratch.dists with the client's distance to every PoP and
// returns the index of the nearest: the first minimum under strict <,
// the rule geo.Nearest applies. The client is converted once per scan
// and each PoP once per fleet (per scan for a Provider without a
// table), so every distance is bit-equal to geo.DistanceKm.
func (p *Provider) scan(client geo.Point, scratch *AssignScratch) int {
	if len(p.PoPs) == 0 {
		panic(fmt.Sprintf("anycast: provider %s has no PoPs", p.ID))
	}
	sites := p.sites.of(p.PoPs)
	if sites == nil {
		scratch.sites = appendSites(scratch.sites[:0], p.PoPs)
		sites = scratch.sites
	}
	from := client.Site()
	scratch.dists = grow(scratch.dists, len(sites))
	nearest := 0
	for i := range sites {
		scratch.dists[i] = from.DistanceKm(sites[i])
		if scratch.dists[i] < scratch.dists[nearest] {
			nearest = i
		}
	}
	return nearest
}

// Assign picks the PoP an anycast route delivers the client to.
// With RoutingNoiseKm = 0 it returns the nearest PoP; otherwise it
// samples among PoPs with weight exp(-detour/temperature), where
// detour is each PoP's extra distance over the nearest and the
// temperature is RoutingNoiseKm — or MisrouteKm for the MisrouteProb
// fraction of clients caught in a bad BGP catchment. The distances in
// the result are the ones the choice was made on, bit-equal to
// geo.DistanceKm and NearestPoP. A nil scratch allocates.
func (p *Provider) Assign(rng *rand.Rand, client geo.Point, scratch *AssignScratch) Assignment {
	if scratch == nil {
		scratch = new(AssignScratch)
	}
	nearest := p.scan(client, scratch)
	dists := scratch.dists
	chosen := p.choose(rng, nearest, scratch)
	return Assignment{PoP: p.PoPs[chosen], DistanceKm: dists[chosen], NearestDistanceKm: dists[nearest]}
}

// choose samples the routed PoP's index from the scanned distances.
func (p *Provider) choose(rng *rand.Rand, nearest int, scratch *AssignScratch) int {
	dists := scratch.dists
	temp := p.RoutingNoiseKm
	if p.MisrouteProb > 0 && rng.Float64() < p.MisrouteProb {
		temp = p.MisrouteKm
	}
	if temp <= 0 {
		return nearest
	}
	total := 0.0
	scratch.weights = grow(scratch.weights, len(dists))
	weights := scratch.weights
	for i := range dists {
		w := math.Exp(-(dists[i] - dists[nearest]) / temp)
		weights[i] = w
		total += w
	}
	u := rng.Float64() * total
	for i, w := range weights {
		u -= w
		if u <= 0 {
			return i
		}
	}
	return len(dists) - 1
}

// AssignPoP is Assign without the distances or the scratch.
func (p *Provider) AssignPoP(rng *rand.Rand, client geo.Point) PoP {
	return p.Assign(rng, client, nil).PoP
}

// NearestPoP returns the geographically closest PoP and its distance
// in kilometers (the paper's "potential improvement" baseline).
func (p *Provider) NearestPoP(client geo.Point) (PoP, float64) {
	var scratch AssignScratch
	nearest := p.scan(client, &scratch)
	return p.PoPs[nearest], scratch.dists[nearest]
}

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

// connectivityRank orders countries by how attractive they are for
// edge deployment: a blend of AS count (IXP presence), bandwidth, and
// exit-node weight (market size).
func connectivityRank() []world.Country {
	all := world.Analyzed()
	sort.Slice(all, func(i, j int) bool {
		si := deployScore(all[i])
		sj := deployScore(all[j])
		if si != sj {
			return si > sj
		}
		return all[i].Code < all[j].Code
	})
	return all
}

func deployScore(ct world.Country) float64 {
	return float64(ct.NumASes)*1.0 + ct.BandwidthMbps*3 + ct.ExitNodeWeight*2
}

// jitterPos scatters the i-th PoP within a country deterministically.
func jitterPos(ct world.Country, i int) geo.Point {
	// Derive two unit deviates from the index; deterministic and
	// well-spread without consuming shared RNG state.
	u := float64((i*2654435761)%1000) / 1000
	v := float64((i*40503+17)%1000) / 1000
	return geo.Jitter(ct.Centroid, 150, u, v)
}

// Catalogue returns the four providers with their placement strategies.
// The fleets are the same on every call and built once per process: the
// map is the caller's own, the Providers it points to (and their PoPs)
// are shared read-only by every caller. To vary a provider, copy it and
// replace the map entry (p := *cat[id]; p.MisrouteProb = x; cat[id] = &p);
// never write through the pointer.
func Catalogue() map[ProviderID]*Provider {
	shared := sharedCatalogue()
	cat := make(map[ProviderID]*Provider, len(shared))
	for id, p := range shared {
		cat[id] = p
	}
	return cat
}

var sharedCatalogue = sync.OnceValue(buildCatalogue)

// buildCatalogue places the four fleets.
func buildCatalogue() map[ProviderID]*Provider {
	ranked := connectivityRank()

	providers := map[ProviderID]*Provider{
		Cloudflare: {
			ID: Cloudflare, Name: "Cloudflare", Endpoint: "https://cloudflare-dns.com/dns-query",
			RoutingNoiseKm: 90, MisrouteProb: 0.27, MisrouteKm: 2300,
			ServiceTime: 10 * time.Millisecond,
		},
		Google: {
			ID: Google, Name: "Google", Endpoint: "https://dns.google/dns-query",
			RoutingNoiseKm: 80, MisrouteProb: 0.11, MisrouteKm: 2800,
			ServiceTime: 22 * time.Millisecond,
		},
		NextDNS: {
			ID: NextDNS, Name: "NextDNS", Endpoint: "https://dns.nextdns.io/dns-query",
			RoutingNoiseKm: 60, MisrouteProb: 0.02, MisrouteKm: 2000,
			ServiceTime: 40 * time.Millisecond, SetupOverhead: 130 * time.Millisecond,
		},
		Quad9: {
			ID: Quad9, Name: "Quad9", Endpoint: "https://dns.quad9.net/dns-query",
			RoutingNoiseKm: 280, MisrouteProb: 0.72, MisrouteKm: 2300,
			ServiceTime: 18 * time.Millisecond,
		},
	}

	// Cloudflare: 146 PoPs in the 146 best-connected countries —
	// guaranteeing presence in mid-tier markets like Senegal.
	cf := providers[Cloudflare]
	for i, ct := range ranked {
		if i >= 146 {
			break
		}
		cf.PoPs = append(cf.PoPs, PoP{
			ID: fmt.Sprintf("cloudflare-%s-%d", ct.Code, i), Provider: Cloudflare,
			Pos: jitterPos(ct, i), CountryCode: ct.Code, HostAS: "AS13335",
		})
	}

	// Google: 26 hub PoPs, none in Africa.
	googleHubs := []string{
		"US", "US", "US", "US", "US", "US", // six in North America
		"DE", "NL", "GB", "FR", "IE", "FI", "PL", "ES", // Europe
		"JP", "TW", "SG", "IN", "KR", "HK", // Asia
		"BR", "CL", // South America
		"AU", "NZ", // Oceania
		"CA", "MX", // North America again
	}
	g := providers[Google]
	for i, code := range googleHubs {
		ct := world.MustByCode(code)
		g.PoPs = append(g.PoPs, PoP{
			ID: fmt.Sprintf("google-%s-%d", code, i), Provider: Google,
			Pos: jitterPos(ct, i*7+1), CountryCode: code, HostAS: "AS15169",
		})
	}

	// NextDNS: 107 PoPs across 47 host ASes, biased toward the same
	// well-connected markets (it rides third-party infrastructure).
	nd := providers[NextDNS]
	hostASes := make([]string, 47)
	for i := range hostASes {
		switch i {
		case 0:
			hostASes[i] = "AS15169" // rides Google in places
		case 1:
			hostASes[i] = "AS13335" // and Cloudflare
		default:
			hostASes[i] = fmt.Sprintf("AS%d", 39000+i*31)
		}
	}
	for i := 0; i < 107 && i < len(ranked); i++ {
		ct := ranked[i]
		nd.PoPs = append(nd.PoPs, PoP{
			ID: fmt.Sprintf("nextdns-%s-%d", ct.Code, i), Provider: NextDNS,
			Pos: jitterPos(ct, i*3+2), CountryCode: ct.Code, HostAS: hostASes[i%47],
		})
	}

	// Quad9: ~150 PoPs with a deliberate Sub-Saharan Africa push.
	q := providers[Quad9]
	added := map[string]int{}
	for i := 0; i < 118 && i < len(ranked); i++ {
		ct := ranked[i]
		q.PoPs = append(q.PoPs, PoP{
			ID: fmt.Sprintf("quad9-%s-%d", ct.Code, i), Provider: Quad9,
			Pos: jitterPos(ct, i*5+3), CountryCode: ct.Code, HostAS: "AS19281",
		})
		added[ct.Code]++
	}
	// African expansion: every analyzed African country gets a PoP.
	idx := 118
	for _, ct := range world.Analyzed() {
		if ct.Region != world.Africa || added[ct.Code] > 0 {
			continue
		}
		q.PoPs = append(q.PoPs, PoP{
			ID: fmt.Sprintf("quad9-%s-%d", ct.Code, idx), Provider: Quad9,
			Pos: jitterPos(ct, idx*5+3), CountryCode: ct.Code, HostAS: "AS19281",
		})
		idx++
	}

	for _, p := range providers {
		p.sites = &siteTable{pops: p.PoPs, sites: appendSites(nil, p.PoPs)}
	}
	return providers
}
