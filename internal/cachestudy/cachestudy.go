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

// Config parameterizes a cache study run. The workload's shape is the
// study's one proposal (the constants below); the fields are the seams
// its model tests vary.
type Config struct {
	// Seed drives all sampling.
	Seed int64
	// ZipfS is the Zipf skew (>1; web popularity is ~1.2-2.0).
	ZipfS float64
	// TTLSeconds is the record TTL.
	TTLSeconds uint32
	// Provider is the DoH service used for the centralized
	// architecture (its anycast routing decides cache sharing).
	Provider anycast.ProviderID
}

// The workload: clientsPerCountry clients in each of countries, each
// sending queriesPerClient queries over a universe of domains names,
// spread over workloadSpan of virtual time. The distributed (Do53)
// architecture gives each country resolversPerCountry independent ISP
// resolver caches.
const (
	clientsPerCountry   = 40
	queriesPerClient    = 60
	domains             = 4000
	resolversPerCountry = 4
	workloadSpan        = 30 * time.Minute
)

// countries hosts the synthetic clients.
var countries = []string{"BR", "IT", "DE", "ZA", "TH", "PL", "CO", "EG", "ES", "VN"}

// DefaultConfig returns the study's configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:       seed,
		ZipfS:      1.3,
		TTLSeconds: 300,
		Provider:   anycast.Cloudflare,
	}
}

// Result summarizes one architecture.
type Result struct {
	// Architecture is "do53-distributed" or "doh-centralized".
	Architecture string
	// Queries is the workload size.
	Queries int
	// HitRatio is cache hits / queries.
	HitRatio float64
	// MeanMs and MedianMs are effective resolution latencies
	// including cache effects; P95Ms and P99Ms capture the tail the
	// paper cares about.
	MeanMs, MedianMs, P95Ms, P99Ms float64
	// Caches is the number of independent cache instances.
	Caches int
}

func (r Result) String() string {
	return fmt.Sprintf("%-24s caches=%3d hit=%5.1f%% mean=%6.1fms median=%6.1fms p95=%6.1fms p99=%6.1fms",
		r.Architecture, r.Caches, 100*r.HitRatio, r.MeanMs, r.MedianMs, r.P95Ms, r.P99Ms)
}

// Run replays the workload against both architectures and returns the
// two results (distributed Do53 first).
func Run(cfg Config) ([]Result, error) {
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("cachestudy: ZipfS must exceed 1")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if !anycast.Known(cfg.Provider) {
		return nil, fmt.Errorf("cachestudy: unknown provider %q", cfg.Provider)
	}
	params := netsim.DefaultParams()
	model, provider := &params.Latency, params.Providers.Of(cfg.Provider)
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
	for _, code := range countries {
		ct := world.MustByCode(code)
		for i := 0; i < clientsPerCountry; i++ {
			pos := geo.Jitter(ct.Centroid, 400, rng.Float64(), rng.Float64())
			resolverIdx := i % resolversPerCountry
			resolverPos := geo.Jitter(ct.Centroid, 120,
				float64(resolverIdx)/float64(resolversPerCountry), 0.4)
			pop := anycast.Catalogue()[cfg.Provider].AssignPoP(rng, pos, provider)
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
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, domains-1)
	type query struct {
		clientIdx int
		domain    uint64
		at        time.Duration
	}
	var workload []query
	for ci := range clients {
		for q := 0; q < queriesPerClient; q++ {
			workload = append(workload, query{
				clientIdx: ci,
				domain:    zipf.Uint64(),
				at:        time.Duration(rng.Int63n(int64(workloadSpan))),
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

	run := func(centralized bool) Result {
		// Virtual clock shared by every cache in this run.
		var now time.Duration
		clock := func() time.Time { return time.Unix(0, 0).Add(now) }

		caches := map[string]*cache.Cache{}
		cacheFor := func(key string) *cache.Cache {
			c, ok := caches[key]
			if !ok {
				c = cache.New(cache.Config{MaxEntries: 1 << 16, Clock: clock})
				caches[key] = c
			}
			return c
		}
		runRng := rand.New(rand.NewSource(cfg.Seed + 7))
		var reply dnswire.Message // every hit's copy, reused: only whether it hit counts
		var latencies []float64
		hits := 0
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
			if msg, _ := store.LookupInto(name, dnswire.TypeA, &reply); msg != nil {
				hits++
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
		sort.Float64s(latencies)
		mean := 0.0
		for _, l := range latencies {
			mean += l
		}
		mean /= float64(len(latencies))
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
			MeanMs:       mean,
			MedianMs:     latencies[len(latencies)/2],
			P95Ms:        quantile(0.95),
			P99Ms:        quantile(0.99),
			Caches:       len(caches),
		}
	}

	return []Result{run(false), run(true)}, nil
}
