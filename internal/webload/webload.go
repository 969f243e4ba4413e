// Package webload models the question the paper's discussion raises
// (§7): DNS resolution is only part of loading a page — how much does
// switching a *web workload* to DoH actually cost? A page load
// resolves a primary domain and then waves of third-party domains
// discovered as subresources arrive; within a wave resolutions run in
// parallel, across waves they serialize. The model replays such pages
// under Do53, cold DoH (fresh TLS session), and warm DoH (reused
// session), with realistic resolver/PoP cache-hit probabilities —
// unlike the main study, which deliberately forced misses.
package webload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/world"
)

// Protocol identifies a resolution strategy for a page load.
type Protocol string

// The three strategies compared.
const (
	Do53    Protocol = "do53"
	DoHCold Protocol = "doh-cold"
	DoHWarm Protocol = "doh-warm"
)

// The typical-web page every workload loads.
const (
	// pagesPerClient is the number of pages each client loads.
	pagesPerClient = 8
	// meanDomains is the average number of domains per page (the
	// web's median is ~20 distinct names).
	meanDomains = 20
	// resolverHitProb and popHitProb are cache-hit probabilities for
	// the ISP resolver and the DoH PoP respectively.
	resolverHitProb = 0.70
	popHitProb      = 0.82
	// fetchMs is the non-DNS portion of the page load, used to compute
	// DNS's share.
	fetchMs = 1800
	// clients sizes the workload.
	clients = 30
	// waves is the dependency depth (HTML -> CSS/JS -> fonts/ads).
	waves = 3
	// provider is the DoH service.
	provider = anycast.Cloudflare
)

// Config parameterizes the workload.
type Config struct {
	// Seed drives sampling.
	Seed int64
	// CountryCode locates the client population.
	CountryCode string
}

// DefaultConfig returns a typical-web workload in the given country.
func DefaultConfig(seed int64, country string) Config {
	return Config{Seed: seed, CountryCode: country}
}

// Outcome summarizes one protocol over the whole workload.
type Outcome struct {
	// Protocol identifies the strategy.
	Protocol Protocol
	// MedianDNSMs is the median per-page DNS time.
	MedianDNSMs float64
	// MedianPageMs is the median page-load time (DNS + fetch).
	MedianPageMs float64
	// DNSShare is DNS's median share of the page load.
	DNSShare float64
}

func (o Outcome) String() string {
	return fmt.Sprintf("%-9s page=%6.0fms dns=%5.0fms (%4.1f%% of load)",
		o.Protocol, o.MedianPageMs, o.MedianDNSMs, 100*o.DNSShare)
}

// Run replays the workload and returns one outcome per protocol, in
// the order Do53, DoHCold, DoHWarm.
func Run(cfg Config) ([]Outcome, error) {
	ct, ok := world.ByCode(cfg.CountryCode)
	if !ok {
		return nil, fmt.Errorf("webload: unknown country %q", cfg.CountryCode)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	params := netsim.DefaultParams()
	model, cal := &params.Latency, params.Providers.Of(provider)
	auth := netsim.Lab

	perPage := map[Protocol][]float64{}
	for c := 0; c < clients; c++ {
		pos := geo.Jitter(ct.Centroid, 400, rng.Float64(), rng.Float64())
		client := netsim.Endpoint{Pos: pos, Country: ct, Residential: true}
		resolverEP := netsim.Endpoint{
			Pos: geo.Jitter(ct.Centroid, 120, rng.Float64(), rng.Float64()), Country: ct,
		}
		overhead := time.Duration(ct.ResolverOverheadMs * float64(time.Millisecond))
		pop := anycast.Catalogue()[provider].AssignPoP(rng, pos, cal)
		popEP := netsim.Endpoint{Pos: pop.Pos, Country: world.MustByCode(pop.CountryCode)}

		do53Query := func() float64 {
			lat := model.RTT(rng, client, resolverEP)
			if rng.Float64() >= resolverHitProb {
				lat += overhead + model.RTT(rng, resolverEP, auth)
			}
			return ms(lat)
		}
		dohQuery := func() float64 {
			lat := model.RTT(rng, client, popEP) + cal.ServiceTime
			if rng.Float64() >= popHitProb {
				lat += model.RTT(rng, popEP, auth)
			}
			return ms(lat)
		}
		dohHandshake := func() float64 {
			// Resolve the DoH server's name (cached at the ISP), then
			// TCP + TLS 1.3 round trips plus the provider's setup cost.
			return ms(model.RTT(rng, client, resolverEP)) +
				ms(model.RTT(rng, client, popEP)) +
				ms(model.RTT(rng, client, popEP)+cal.SetupOverhead)
		}

		for p := 0; p < pagesPerClient; p++ {
			nDomains := 1 + rng.Intn(meanDomains*2-1) // uniform, mean ≈ meanDomains
			pageWaves := splitWaves(nDomains, rng)

			pageDNS := func(query func() float64, setup float64) float64 {
				total := setup
				for _, wave := range pageWaves {
					// Parallel within the wave: the wave costs its max.
					maxQ := 0.0
					for i := 0; i < wave; i++ {
						if q := query(); q > maxQ {
							maxQ = q
						}
					}
					total += maxQ
				}
				return total
			}

			perPage[Do53] = append(perPage[Do53], pageDNS(do53Query, 0))
			perPage[DoHCold] = append(perPage[DoHCold], pageDNS(dohQuery, dohHandshake()))
			perPage[DoHWarm] = append(perPage[DoHWarm], pageDNS(dohQuery, 0))
		}
	}

	var out []Outcome
	for _, proto := range []Protocol{Do53, DoHCold, DoHWarm} {
		vals := perPage[proto]
		sort.Float64s(vals)
		dns := vals[len(vals)/2]
		out = append(out, Outcome{
			Protocol:     proto,
			MedianDNSMs:  dns,
			MedianPageMs: dns + fetchMs,
			DNSShare:     dns / (dns + fetchMs),
		})
	}
	return out, nil
}

// splitWaves partitions n domains into at most waves waves: the first
// wave is the primary domain, the rest spread over the remaining waves.
func splitWaves(n int, rng *rand.Rand) []int {
	out := make([]int, 0, waves)
	out = append(out, 1)
	n--
	for w := 1; w < waves && n > 0; w++ {
		var take int
		if w == waves-1 {
			take = n
		} else {
			take = 1 + rng.Intn(n)
		}
		out = append(out, take)
		n -= take
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
