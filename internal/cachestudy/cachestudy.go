// Package cachestudy implements the experiment the paper's discussion
// section proposes as future work (§7, "Cache Hits and Misses"): the
// study itself forced cache misses with UUID subdomains, deliberately
// excluding caching — but a real client mixes hits and misses, and
// DoH centralizes caching (one PoP serves clients from many ISPs)
// while Do53 distributes it (each ISP resolver caches for its own
// customers only).
//
// The study replays a Zipf-popularity workload against both cache
// architectures, driving the production sharded cache (internal/cache)
// under a virtual clock, and reports hit ratios and effective
// resolution latencies.
package cachestudy

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"repro/internal/anycast"
	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/world"
)

// Config parameterizes a cache study run.
type Config struct {
	// Seed drives all sampling.
	Seed int64
	// Countries hosts the synthetic clients; nil uses a default mix.
	Countries []string
	// ClientsPerCountry is the population per country.
	ClientsPerCountry int
	// QueriesPerClient is the workload length.
	QueriesPerClient int
	// Domains is the size of the domain universe.
	Domains int
	// ZipfS is the Zipf skew (>1; web popularity is ~1.2-2.0).
	ZipfS float64
	// TTLSeconds is the record TTL.
	TTLSeconds uint32
	// ResolversPerCountry is the number of independent ISP resolver
	// caches per country in the distributed (Do53) architecture.
	ResolversPerCountry int
	// WorkloadSpan is the virtual time the workload is spread over.
	WorkloadSpan time.Duration
	// Provider is the DoH service used for the centralized
	// architecture (its anycast routing decides cache sharing).
	Provider anycast.ProviderID
	// StaleTTL, when positive, adds a second pair of runs with
	// RFC 8767 serve-stale enabled: expired entries answer at hit cost
	// while a (virtual-time synchronous) background refresh
	// repopulates them. Zero keeps the classic two-run study.
	StaleTTL time.Duration
	// PrefetchThreshold is the popularity-prefetch horizon for the
	// serve-stale runs (see cache.Config.PrefetchThreshold). Only
	// meaningful with StaleTTL set.
	PrefetchThreshold time.Duration
}

// DefaultConfig returns a medium-size workload.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                seed,
		Countries:           []string{"BR", "IT", "DE", "ZA", "TH", "PL", "CO", "EG", "ES", "VN"},
		ClientsPerCountry:   40,
		QueriesPerClient:    60,
		Domains:             4000,
		ZipfS:               1.3,
		TTLSeconds:          300,
		ResolversPerCountry: 4,
		WorkloadSpan:        30 * time.Minute,
		Provider:            anycast.Cloudflare,
	}
}

// Result summarizes one architecture.
type Result struct {
	// Architecture is "do53-distributed" or "doh-centralized", with a
	// "+stale" suffix on the serve-stale variants.
	Architecture string
	// Queries is the workload size.
	Queries int
	// HitRatio is cache hits / queries (fresh and stale both count:
	// either way the client was answered from the cache).
	HitRatio float64
	// StaleRatio is stale-served answers / queries (zero unless the
	// run had serve-stale enabled).
	StaleRatio float64
	// MeanMs and MedianMs are effective resolution latencies
	// including cache effects; P95Ms and P99Ms capture the tail the
	// paper cares about — serve-stale's whole purpose is flattening
	// the miss spikes out of it.
	MeanMs, MedianMs, P95Ms, P99Ms float64
	// Prefetches counts popularity-driven refreshes across the run's
	// caches.
	Prefetches int64
	// Caches is the number of independent cache instances.
	Caches int
}

func (r Result) String() string {
	s := fmt.Sprintf("%-24s caches=%3d hit=%5.1f%% mean=%6.1fms median=%6.1fms p95=%6.1fms p99=%6.1fms",
		r.Architecture, r.Caches, 100*r.HitRatio, r.MeanMs, r.MedianMs, r.P95Ms, r.P99Ms)
	if r.StaleRatio > 0 || r.Prefetches > 0 {
		s += fmt.Sprintf(" stale=%4.1f%% prefetch=%d", 100*r.StaleRatio, r.Prefetches)
	}
	return s
}

// Run replays the workload against both architectures and returns the
// two results (distributed Do53 first).
func Run(cfg Config) ([]Result, error) {
	if cfg.ClientsPerCountry <= 0 || cfg.QueriesPerClient <= 0 || cfg.Domains <= 0 {
		return nil, fmt.Errorf("cachestudy: non-positive workload dimensions")
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("cachestudy: ZipfS must exceed 1")
	}
	if cfg.Countries == nil {
		cfg.Countries = DefaultConfig(0).Countries
	}
	if cfg.ResolversPerCountry <= 0 {
		cfg.ResolversPerCountry = 4
	}
	if cfg.WorkloadSpan <= 0 {
		cfg.WorkloadSpan = 30 * time.Minute
	}
	if cfg.Provider == "" {
		cfg.Provider = anycast.Cloudflare
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	model := netsim.DefaultLatencyModel()
	providers := anycast.Catalogue()
	provider, ok := providers[cfg.Provider]
	if !ok {
		return nil, fmt.Errorf("cachestudy: unknown provider %q", cfg.Provider)
	}
	auth := netsim.Lab

	// Build the client population.
	type client struct {
		endpoint    netsim.Endpoint
		country     world.Country
		resolverIdx int
		resolverEP  netsim.Endpoint
		pop         anycast.PoP
		popEP       netsim.Endpoint
		overhead    time.Duration
	}
	var clients []client
	for _, code := range cfg.Countries {
		ct, ok := world.ByCode(code)
		if !ok {
			return nil, fmt.Errorf("cachestudy: unknown country %q", code)
		}
		for i := 0; i < cfg.ClientsPerCountry; i++ {
			pos := geo.Jitter(ct.Centroid, 400, rng.Float64(), rng.Float64())
			resolverIdx := i % cfg.ResolversPerCountry
			resolverPos := geo.Jitter(ct.Centroid, 120,
				float64(resolverIdx)/float64(cfg.ResolversPerCountry), 0.4)
			pop := provider.AssignPoP(rng, pos)
			clients = append(clients, client{
				endpoint:    netsim.Endpoint{Pos: pos, Country: ct, Residential: true},
				country:     ct,
				resolverIdx: resolverIdx,
				resolverEP:  netsim.Endpoint{Pos: resolverPos, Country: ct},
				pop:         pop,
				popEP:       netsim.Endpoint{Pos: pop.Pos, Country: world.MustByCode(pop.CountryCode)},
				overhead:    time.Duration(ct.ResolverOverheadMs * float64(time.Millisecond)),
			})
		}
	}

	// Shared workload: (client, domain, time) triples, identical for
	// both architectures.
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Domains-1))
	type query struct {
		clientIdx int
		domain    uint64
		at        time.Duration
	}
	var workload []query
	for ci := range clients {
		for q := 0; q < cfg.QueriesPerClient; q++ {
			workload = append(workload, query{
				clientIdx: ci,
				domain:    zipf.Uint64(),
				at:        time.Duration(rng.Int63n(int64(cfg.WorkloadSpan))),
			})
		}
	}
	sort.Slice(workload, func(i, j int) bool { return workload[i].at < workload[j].at })

	answer := func(name dnswire.Name) *dnswire.Message {
		m := dnswire.NewQuery(1, name, dnswire.TypeA).Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: cfg.TTLSeconds,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.80")},
		})
		return m
	}

	run := func(centralized, stale bool) Result {
		// Virtual clock shared by every cache in this run.
		var now time.Duration
		clock := func() time.Time { return time.Unix(0, 0).Add(now) }

		caches := map[string]*cache.Cache{}
		cacheFor := func(key string) *cache.Cache {
			if c, ok := caches[key]; !ok {
				ccfg := cache.Config{MaxEntries: 1 << 16, Clock: clock}
				if stale {
					// SyncRefresh keeps the study deterministic: the
					// refresh runs inline under the virtual clock, but
					// its upstream cost is not charged to the client —
					// that is the whole point of serve-stale.
					ccfg.StaleTTL = cfg.StaleTTL
					ccfg.PrefetchThreshold = cfg.PrefetchThreshold
					ccfg.SyncRefresh = true
				}
				c = cache.New(ccfg)
				if stale {
					c.SetRefresher(func(_ context.Context, name dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
						return answer(name), nil
					})
				}
				caches[key] = c
				return c
			} else {
				return c
			}
		}
		runRng := rand.New(rand.NewSource(cfg.Seed + 7))
		var latencies []float64
		hits, stales := 0, 0
		for _, q := range workload {
			now = q.at
			cl := clients[q.clientIdx]
			name := dnswire.NewName(fmt.Sprintf("d%06d.popular.example", q.domain))
			var cacheKey string
			var frontEP netsim.Endpoint
			var missExtra time.Duration
			if centralized {
				cacheKey = cl.pop.ID
				frontEP = cl.popEP
				missExtra = provider.ServiceTime
			} else {
				cacheKey = cl.country.Code + "/" + fmt.Sprint(cl.resolverIdx)
				frontEP = cl.resolverEP
				missExtra = cl.overhead
			}
			store := cacheFor(cacheKey)
			lat := model.RTT(runRng, cl.endpoint, frontEP)
			if msg, outcome := store.Lookup(name, dnswire.TypeA); msg != nil {
				hits++
				if outcome == cache.Stale {
					stales++
				}
			} else {
				lat += missExtra + model.RTT(runRng, frontEP, auth)
				store.Put(name, dnswire.TypeA, answer(name))
			}
			latencies = append(latencies, float64(lat)/float64(time.Millisecond))
		}
		arch := "do53-distributed"
		if centralized {
			arch = "doh-centralized"
		}
		if stale {
			arch += "+stale"
		}
		sort.Float64s(latencies)
		mean := 0.0
		for _, l := range latencies {
			mean += l
		}
		mean /= float64(len(latencies))
		var prefetches int64
		for _, c := range caches {
			prefetches += c.Stats().Prefetches
		}
		quantile := func(p float64) float64 {
			i := int(p * float64(len(latencies)))
			if i >= len(latencies) {
				i = len(latencies) - 1
			}
			return latencies[i]
		}
		return Result{
			Architecture: arch,
			Queries:      len(workload),
			HitRatio:     float64(hits) / float64(len(workload)),
			StaleRatio:   float64(stales) / float64(len(workload)),
			MeanMs:       mean,
			MedianMs:     latencies[len(latencies)/2],
			P95Ms:        quantile(0.95),
			P99Ms:        quantile(0.99),
			Prefetches:   prefetches,
			Caches:       len(caches),
		}
	}

	results := []Result{run(false, false), run(true, false)}
	if cfg.StaleTTL > 0 || cfg.PrefetchThreshold > 0 {
		results = append(results, run(false, true), run(true, true))
	}
	return results, nil
}
