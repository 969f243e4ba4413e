// Package campaign orchestrates the paper's measurement campaign:
// for every country in the proxy network, it provisions exit nodes
// (10 to 282 per country, matching BrightData availability), runs two
// measurement runs per client — each resolving a unique cache-busting
// subdomain via all four DoH providers plus the client's default Do53
// resolver — applies the estimator, cross-checks country labels
// against the geolocation service (discarding mismatches, paper:
// 0.88%), and patches the 11 Super-Proxy countries' Do53 data with
// Atlas probe measurements.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/anycast"
	"repro/internal/atlas"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/geo"
	"repro/internal/geoip"
	"repro/internal/obs"
	"repro/internal/proxynet"
	"repro/internal/resolver"
	"repro/internal/sketch"
	"repro/internal/smart"
	"repro/internal/stats"
	"repro/internal/world"
)

// Config parameterizes a campaign.
type Config struct {
	// Seed makes the whole campaign reproducible.
	Seed int64
	// RunsPerClient is the number of measurement runs per exit node
	// (the paper uses 2).
	RunsPerClient int
	// MinClients excludes countries with fewer available clients
	// (the paper's threshold is 10).
	MinClients int
	// MaxClients caps per-country clients (the paper saw at most 282).
	MaxClients int
	// ClientScale multiplies each country's exit-node weight to set
	// its client count; 1.0 reproduces the paper's ~22k total.
	ClientScale float64
	// Providers lists the DoH services to measure; nil means all four.
	Providers []anycast.ProviderID
	// Transports selects the transports each client is measured over.
	// Nil or empty means the paper's set: Do53 (the client's default
	// resolver) plus DoH. Adding resolver.DoT or resolver.DoQ also runs
	// the extension DoT/DoQ measurements per provider. Adding
	// resolver.Smart derives the fifth strategy column — "best
	// available encrypted transport": a modeled happy-eyeballs race
	// over the client's measured encrypted transports, per provider
	// (requires at least one of DoH/DoT/DoQ in the set). Run rejects
	// unknown kinds.
	Transports []resolver.Kind
	// AtlasProbes is the probe count per Super-Proxy country for the
	// Do53 remedy.
	AtlasProbes int
	// Countries restricts the campaign to specific country codes;
	// nil means every country in the world dataset.
	Countries []string
	// Parallel is the number of worker goroutines measuring
	// countries concurrently. Results are identical for every value:
	// each country's measurements derive from its own seed, so the
	// schedule cannot leak into the data. 0 means GOMAXPROCS.
	Parallel int
	// Chaos, when any probability is non-zero, arms each country
	// simulator's failure injector (exit churn, header corruption,
	// tunnel resets). Chaos draws come from a per-country stream
	// derived from Seed, so a chaos campaign is as reproducible and
	// parallelism-invariant as a clean one.
	Chaos proxynet.Chaos
	// Breaker, when non-nil, arms one circuit breaker per
	// provider×country measurement loop (DoH, DoT and DoQ). Runs
	// short-circuited by an open breaker are counted in
	// TransportStats.Skipped, and trip totals surface in
	// Dataset.Breakers and the resolver_<kind>_breaker_* gauges. Use a
	// count-based ProbeEvery schedule: wall-clock probing would make
	// the dataset depend on host timing.
	Breaker *resolver.BreakerPolicy
	// Cache, when non-nil, arms the cache-busting tripwire: before
	// each measurement run the campaign looks its unique query name up
	// in this shared answer cache, and after issuing the run it stores
	// a marker answer under that name. Because every run draws a fresh
	// name, a correct campaign records zero hits and the dataset (and
	// its CSV export) stays byte-identical to an unguarded run; a hit
	// means a name was reused — the §4 cache-busting invariant broke —
	// and that run is skipped (counted in TransportStats.Skipped)
	// instead of polluting the data with a warm-cache timing. Guard
	// totals surface as campaign_cache_guard_* gauges in Dataset.Obs.
	// The field is a reporting/tripwire knob with no effect on the
	// records, so it stays out of the checkpoint config key.
	Cache *cache.Cache
	// CheckpointDir, when set, journals every completed country so an
	// interrupted campaign can resume without re-measuring. Records
	// are keyed by a hash of the result-affecting configuration; a
	// journal written under different parameters is ignored. A resumed
	// campaign is byte-for-byte identical to an uninterrupted one.
	CheckpointDir string
	// OnCountryDone, when non-nil, observes each completed country
	// (after journaling) with the number of kept clients and whether
	// the record came from the checkpoint journal. Called from worker
	// goroutines, serialized by the campaign.
	OnCountryDone func(code string, clients int, resumed bool)
	// ClaimOwner, when non-empty (requires CheckpointDir), arms the
	// work-claim protocol for sharded campaigns: before measuring a
	// country the worker claims it in the journal, and a country whose
	// claim belongs to a different owner is skipped entirely — neither
	// measured nor restored — so N processes sharing one journal
	// directory partition the country list with no double-measuring
	// and no double-counting. Claims are released when a country fails
	// or is interrupted (making it claimable again) and kept when it
	// completes (marking which shard's dataset owns it). Like Parallel,
	// this is a scheduling knob: it cannot change any record, so it
	// stays out of the checkpoint config key.
	ClaimOwner string
	// DiscardClients, when true, drops each country's client records
	// after they are sketched and journaled, keeping only the
	// mergeable aggregates (Dataset.Sketch, accounting, KeptClients).
	// Peak memory is then bounded by the largest single country
	// instead of the whole world — the constant-RSS mode for
	// million-client scale-out. Dataset.Clients is empty; CSV export
	// requires the full records, so the two are mutually exclusive by
	// construction. A reporting knob: out of the config key.
	DiscardClients bool
}

// DefaultConfig reproduces the paper's campaign shape: with the
// default scale the campaign collects on the order of the paper's
// 22,052 unique clients.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		RunsPerClient: 2,
		MinClients:    10,
		MaxClients:    282,
		ClientScale:   2.7,
		AtlasProbes:   25,
		Transports:    DefaultTransports(),
	}
}

// DefaultTransports is the paper's measurement set: every client's
// default Do53 resolver plus the DoH providers.
func DefaultTransports() []resolver.Kind {
	return []resolver.Kind{resolver.Do53, resolver.DoH}
}

// normalizeTransports validates and deduplicates the configured
// transport set, applying the paper's default when empty.
func normalizeTransports(kinds []resolver.Kind) ([]resolver.Kind, error) {
	if len(kinds) == 0 {
		return DefaultTransports(), nil
	}
	seen := make(map[resolver.Kind]bool, len(kinds))
	out := make([]resolver.Kind, 0, len(kinds))
	for _, k := range kinds {
		if !k.Valid() {
			return nil, fmt.Errorf("campaign: unknown transport %q (want do53, doh, dot, doq, or smart)", k)
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	if seen[resolver.Smart] && !slices.ContainsFunc(out, smartCandidate) {
		return nil, fmt.Errorf("campaign: smart requires at least one encrypted transport (doh, dot, or doq)")
	}
	return out, nil
}

// DoHResult is a client's (averaged) DoH measurement for one provider.
type DoHResult struct {
	// TDoHMs and TDoHRMs are the estimated first-query and
	// reused-connection resolution times (milliseconds, averaged over
	// the client's runs).
	TDoHMs  float64
	TDoHRMs float64
	// PoPID is the point of presence that served the client.
	PoPID string
	// PoPCountry hosts that PoP.
	PoPCountry string
	// PoPDistanceKm is the client-to-used-PoP geodesic distance.
	PoPDistanceKm float64
	// NearestPoPDistanceKm is the distance to the provider's closest
	// PoP.
	NearestPoPDistanceKm float64
	// Valid reports at least one plausible measurement.
	Valid bool
}

// PotentialImprovementKm is the paper's Figure-6 metric.
func (r DoHResult) PotentialImprovementKm() float64 {
	d := r.PoPDistanceKm - r.NearestPoPDistanceKm
	if d < 0 {
		return 0
	}
	return d
}

// SessionResult is a client's (averaged) measurement for one provider
// over one extension transport (DoT, DoQ) the campaign has enabled.
type SessionResult struct {
	// FirstMs and ReusedMs are the first-query and reused-connection
	// resolution times (milliseconds, averaged over unblocked runs).
	FirstMs  float64
	ReusedMs float64
	// BlockedRuns counts this client's runs dropped by port-853
	// filtering for this provider. A client can be partially blocked:
	// BlockedRuns > 0 with Valid still true means some runs got
	// through and the timing fields are usable.
	BlockedRuns int
	// Blocked reports total blocking: every run was dropped, so no
	// timing fields are valid.
	Blocked bool
	// Valid reports at least one unblocked measurement.
	Valid bool
}

// extensions is the campaign's side of proxynet's session table: the
// kind that selects each row in Config.Transports, names its accounting
// and metrics, and enters the smart race. Rows run in table order.
var extensions = [proxynet.NumTransports]resolver.Kind{
	proxynet.DoT: resolver.DoT,
	proxynet.DoQ: resolver.DoQ,
}

// SmartResult is the derived fifth strategy — "best available
// encrypted transport" — for one client and provider: a modeled
// happy-eyeballs race over the client's measured encrypted transports
// (DoH, then the extensions in table order, smartStaggerMs apart),
// remembering the winner for steady state. No wire queries are issued:
// the column is a pure function of the measured per-transport results,
// which is what keeps it byte-identical across shards and restores.
type SmartResult struct {
	// TSmartMs is the first-query time: the race's winning arrival,
	// min over candidates i of i*stagger + first_i.
	TSmartMs float64
	// TSmartRMs is the steady-state time: the winner's
	// reused-connection latency (the remembered-winner fast path).
	TSmartRMs float64
	// Winner is the transport kind that won the race.
	Winner string
	// Valid reports at least one valid encrypted candidate.
	Valid bool
}

// ClientRecord is one unique client in the dataset.
type ClientRecord struct {
	// ClientID is the proxy network's stable exit-node identifier.
	ClientID string
	// CountryCode is the validated country.
	CountryCode string
	// Prefix is the client's /24 (the granularity the paper stores).
	Prefix string
	// Pos is the client's approximate location.
	Pos geo.Point
	// DoH holds the result per provider; empty unless Transports include
	// resolver.DoH.
	DoH anycast.PerProvider[DoHResult]
	// Sessions holds, per extension transport (proxynet.DoT,
	// proxynet.DoQ), the result per provider; empty unless Transports
	// include its kind.
	Sessions [proxynet.NumTransports]anycast.PerProvider[SessionResult]
	// Smart holds the derived best-encrypted-transport result per
	// provider; empty unless Transports include resolver.Smart.
	Smart anycast.PerProvider[SmartResult]
	// Do53Ms is the default-resolver resolution time (milliseconds).
	Do53Ms float64
	// Do53Valid is false in the 11 Super-Proxy countries.
	Do53Valid bool
	// NSDistanceKm is the client-to-authoritative-server distance.
	NSDistanceKm float64
}

// Dataset is the output of a campaign.
type Dataset struct {
	// Clients holds one record per kept client.
	Clients []ClientRecord
	// AtlasDo53Ms maps the 11 Super-Proxy countries to their Atlas
	// Do53 medians (milliseconds).
	AtlasDo53Ms map[string]float64
	// Accounting sums the countries' drop accounting.
	Accounting
	// Obs is the campaign's observability snapshot: per-provider and
	// per-country latency histograms, accounting gauges, and the
	// merged simulator counters. Deterministic for a given Config
	// regardless of Parallel.
	Obs obs.Snapshot
	// Sketch holds the campaign's mergeable latency aggregates, one
	// fixed-bucket histogram per obs metric name (campaign_doh_<p>_ms,
	// campaign_country_<cc>_doh_ms, ...). Sketches from shard datasets
	// merge exactly (see internal/sketch), and the obs histograms
	// above are built from this sketch, so the two always agree.
	Sketch *sketch.Set
	// KeptClients counts the clients the campaign measured and kept,
	// including records dropped from Clients by Config.DiscardClients
	// — the honest denominator in constant-memory mode (equal to
	// len(Clients) otherwise).
	KeptClients int
	// Seed echoes the campaign seed.
	Seed int64
	// Partial reports that the campaign was canceled before every
	// country finished: Clients covers only the completed countries
	// and the Atlas remedy was skipped.
	Partial bool
}

// Accounting is the drop accounting of a country, of its journal record
// (under these JSON names) and of a dataset, which sums its countries'.
type Accounting struct {
	// DiscardedMismatch counts clients dropped because the proxy
	// network and the geolocation service disagreed on the country.
	DiscardedMismatch int `json:"mismatch"`
	// DiscardedImplausible counts measurements dropped by the
	// estimator's plausibility checks.
	DiscardedImplausible int `json:"implausible"`
	// Transports reports per-transport measurement accounting: how
	// many queries ran, how many were discarded, and how many wire
	// loss events they absorbed (paper §3.5's drop handling, reported
	// per transport instead of silently lost).
	Transports map[resolver.Kind]TransportStats `json:"transports"`
	// Breakers reports circuit-breaker activity per transport kind;
	// empty unless Config.Breaker armed them.
	Breakers map[resolver.Kind]BreakerStats `json:"breakers,omitempty"`
	// SmartWins counts, per transport kind, how many (client, provider)
	// smart races that kind won; nil unless resolver.Smart is in the
	// transport set. Kept as accounting (not just derivable from
	// Clients) so the constant-memory DiscardClients mode still reports
	// the win split.
	SmartWins map[resolver.Kind]int `json:"smart_wins,omitempty"`
}

// add sums o into a: the one fold, per country in Run and per part in
// Merge.
func (a *Accounting) add(o Accounting) {
	a.DiscardedMismatch += o.DiscardedMismatch
	a.DiscardedImplausible += o.DiscardedImplausible
	for kind, ts := range o.Transports {
		if a.Transports == nil {
			a.Transports = make(map[resolver.Kind]TransportStats)
		}
		t := a.Transports[kind]
		t.Queries += ts.Queries
		t.Successes += ts.Successes
		t.Discards += ts.Discards
		t.LossEvents += ts.LossEvents
		t.Blocked += ts.Blocked
		t.Skipped += ts.Skipped
		a.Transports[kind] = t
	}
	for kind, bs := range o.Breakers {
		if a.Breakers == nil {
			a.Breakers = make(map[resolver.Kind]BreakerStats)
		}
		b := a.Breakers[kind]
		b.Trips += bs.Trips
		b.ShortCircuits += bs.ShortCircuits
		b.Probes += bs.Probes
		b.EndedOpen += bs.EndedOpen
		a.Breakers[kind] = b
	}
	for kind, n := range o.SmartWins {
		if a.SmartWins == nil {
			a.SmartWins = make(map[resolver.Kind]int)
		}
		a.SmartWins[kind] += n
	}
}

// TransportStats is the per-transport drop accounting for a campaign.
type TransportStats struct {
	// Queries counts measurement runs issued on the transport.
	Queries int
	// Successes counts runs that produced a usable estimate. Every
	// issued run lands in exactly one bucket, so
	// Queries == Successes + Discards always holds — the balance the
	// chaos soak asserts on.
	Successes int
	// Discards counts runs dropped by the estimator's plausibility
	// checks (or, for Do53 in Super-Proxy countries, the §3.5
	// invalidation) — plus blocked DoT and DoQ sessions.
	Discards int
	// LossEvents counts simulated retransmission-timeout events on
	// the wire during the transport's measurement runs.
	LossEvents int64
	// Blocked counts DoT and DoQ sessions dropped by port-853 filtering
	// (always zero for Do53 and DoH).
	Blocked int
	// Skipped counts runs that were never issued because an earlier
	// run hit a permanent per-client failure (Do53 in a Super-Proxy
	// country: once the Super Proxy answers for the exit node, the
	// remaining runs cannot succeed either). Queries + Skipped equals
	// the configured runs, so nothing silently vanishes from the
	// accounting.
	Skipped int
}

// BreakerStats aggregates the per-provider×country circuit breakers
// for one transport kind.
type BreakerStats struct {
	// Trips counts closed/half-open -> open transitions.
	Trips int64
	// ShortCircuits counts runs rejected while open (these are also in
	// TransportStats.Skipped).
	ShortCircuits int64
	// Probes counts half-open probe admissions.
	Probes int64
	// EndedOpen counts breakers still open when their country finished
	// — the per-target "this transport is dead here" signal.
	EndedOpen int64
}

// Run executes the campaign to completion (no cancellation).
func Run(cfg Config) (*Dataset, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the campaign under ctx. On cancellation it
// returns the partial dataset covering every country that had already
// finished (flagged Partial, Atlas remedy skipped) together with the
// wrapped context error, so a caller trapping SIGINT can still flush
// what the campaign measured. The in-flight countries are abandoned,
// not journaled: a resumed campaign re-measures them from their own
// seeds, which is what keeps resumption byte-identical.
func RunContext(ctx context.Context, cfg Config) (*Dataset, error) {
	if cfg.RunsPerClient <= 0 {
		cfg.RunsPerClient = 2
	}
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = 282
	}
	if cfg.ClientScale <= 0 {
		cfg.ClientScale = 1
	}
	providers := cfg.Providers
	if providers == nil {
		providers = anycast.ProviderIDs()
	}
	for _, pid := range providers {
		if !anycast.Known(pid) {
			return nil, fmt.Errorf("campaign: unknown provider %q", pid)
		}
	}
	transports, err := normalizeTransports(cfg.Transports)
	if err != nil {
		return nil, err
	}
	cfg.Transports = transports

	ds := &Dataset{
		AtlasDo53Ms: make(map[string]float64),
		Accounting:  Accounting{Transports: make(map[resolver.Kind]TransportStats, len(transports))},
		Seed:        cfg.Seed,
	}
	for _, k := range transports {
		ds.Transports[k] = TransportStats{}
	}

	// Canonical country order: the dataset (and so its CSV export) is a
	// pure function of the country SET, never of the order the caller
	// listed it in. This is what lets Merge reassemble shard outputs
	// into the exact byte sequence of an unsharded run.
	countries := append([]string(nil), cfg.Countries...)
	if countries == nil {
		for _, ct := range world.All() {
			countries = append(countries, ct.Code)
		}
	}
	sort.Strings(countries)

	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(countries) {
		workers = len(countries)
	}
	if workers < 1 {
		workers = 1
	}

	var journal *checkpoint.Journal
	if cfg.CheckpointDir != "" {
		journal, err = checkpoint.Open(cfg.CheckpointDir, configKey(cfg, providers))
		if err != nil {
			return nil, err
		}
	}
	if cfg.ClaimOwner != "" && journal == nil {
		return nil, fmt.Errorf("campaign: ClaimOwner %q requires CheckpointDir (the claim journal)", cfg.ClaimOwner)
	}
	claiming := journal != nil && cfg.ClaimOwner != ""
	// Serializes the OnCountryDone callback across workers. Journaling
	// needs no lock: the journal is safe for concurrent use.
	var doneMu sync.Mutex
	countryDone := func(code string, clients int, resumed bool) {
		if cfg.OnCountryDone == nil {
			return
		}
		doneMu.Lock()
		defer doneMu.Unlock()
		cfg.OnCountryDone(code, clients, resumed)
	}

	// Each country is measured on its own simulator, seeded from the
	// campaign seed and the country code. This makes the dataset a
	// pure function of the configuration: the same records come back
	// whether countries run serially or on N workers, and a journaled
	// country can be loaded back verbatim on resume.
	//
	// Client records are the one order-dependent output, and each is
	// written once: a country's client count is known before it runs,
	// so the dataset's records are allocated in one piece, country i
	// fills the window at offset[i] in place, and the windows are closed
	// up in country order once the workers are done. Without kept
	// records there are no windows; a worker reuses one buffer.
	offset := make([]int, len(countries)+1)
	for i, code := range countries {
		offset[i+1] = offset[i]
		if ct, ok := world.ByCode(code); ok {
			offset[i+1] += clientsIn(cfg, ct)
		}
	}
	var clients []ClientRecord
	if !cfg.DiscardClients {
		clients = make([]ClientRecord, offset[len(countries)])
	}
	kept := make([]int, len(countries))
	errs := make([]error, len(countries))
	completed := make([]bool, len(countries))
	// Shared aggregates, folded into as countries complete: every
	// sketch accumulator and accounting figure is a commutative and
	// associative sum (or min, or max), so the result is
	// schedule-independent, and not holding per-country records and
	// accounting until the end is what keeps DiscardClients memory flat
	// in the country count.
	agg := sketch.NewSet()
	var aggMu sync.Mutex
	var simTotal proxynet.SimStats
	var wg sync.WaitGroup
	work := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := new(worker)
			// window returns the storage country idx's records go to,
			// empty, with room for all of them.
			window := func(idx int) []ClientRecord {
				if cfg.DiscardClients {
					w.buf = slices.Grow(w.buf[:0], offset[idx+1]-offset[idx])
					return w.buf
				}
				return clients[offset[idx]:offset[idx]:offset[idx+1]]
			}
			// country restores country idx from the journal, or measures
			// and journals it.
			country := func(idx int) (countryRecord, bool, error) {
				code := countries[idx]
				if journal != nil {
					var rec countryRecord
					ok, err := journal.Get(code, &rec)
					if err != nil {
						return rec, false, err
					}
					if ok {
						if !cfg.DiscardClients {
							win := window(idx)
							if len(rec.Clients) > cap(win) {
								return rec, true, fmt.Errorf("campaign: journal record for %s holds %d clients, the country provisions %d", code, len(rec.Clients), cap(win))
							}
							rec.Clients = append(win, rec.Clients...)
						}
						return rec, true, nil
					}
				}
				rec, err := measureCountry(ctx, cfg, code, providers, w, window(idx))
				if err == nil && journal != nil {
					err = journal.Put(code, rec)
				}
				return rec, false, err
			}
			for idx := range work {
				code := countries[idx]
				if claiming {
					// Claim BEFORE consulting the journal: a country
					// another shard completed has a journal record AND
					// that shard's claim, and restoring it here would
					// double-count it in the merged dataset. Not ours
					// means not our problem — skip it entirely.
					mine, err := journal.Claim(code, cfg.ClaimOwner)
					if err != nil {
						errs[idx] = err
						continue
					}
					if !mine {
						continue
					}
				}
				rec, resumed, err := country(idx)
				if err != nil {
					errs[idx] = err
					if claiming {
						// Failed or interrupted: hand the country back
						// so a sibling shard (or a retry) can take it.
						// Best-effort; the country's error wins.
						journal.Release(code, cfg.ClaimOwner)
					}
					continue
				}
				// Fold the country into the aggregates. In DiscardClients
				// mode its observations, accounting, and count are all
				// that leave the worker, so peak memory stays bounded by
				// the in-flight countries rather than the whole world.
				kept[idx] = len(rec.Clients)
				aggMu.Lock()
				foldClients(agg, rec.Clients)
				ds.KeptClients += len(rec.Clients)
				ds.add(rec.Accounting)
				simTotal = addSimStats(simTotal, rec.SimStats)
				aggMu.Unlock()
				completed[idx] = true
				countryDone(code, kept[idx], resumed)
			}
		}()
	}
feed:
	for idx := range countries {
		select {
		case work <- idx:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
	}
	ds.Sketch = agg
	if clients != nil {
		n := 0
		for i := range countries {
			if completed[i] {
				n += copy(clients[n:], clients[offset[i]:offset[i]+kept[i]])
			}
		}
		ds.Clients = clients[:n]
	}

	if err := ctx.Err(); err != nil {
		// Partial flush: the completed countries' records, accounting,
		// and observability — but no Atlas remedy, which would hide
		// the missing Do53 coverage behind fresh probe data.
		ds.Partial = true
		if oerr := finishObs(cfg, ds, simTotal); oerr != nil {
			return nil, oerr
		}
		return ds, fmt.Errorf("campaign: interrupted: %w", err)
	}

	// Remedy: Atlas Do53 medians for the Super-Proxy countries. The
	// probe network shares the world's latency model and targets the
	// same lab endpoint.
	ref := proxynet.NewSim(cfg.Seed)
	at := atlas.New(cfg.Seed+1, ref.Model, ref.Lab)
	probes := cfg.AtlasProbes
	if probes <= 0 {
		probes = 25
	}
	for _, ct := range world.SuperProxyCountries() {
		med, err := at.CountryMedianDo53(ct.Code, probes, 10)
		if err != nil {
			return nil, err
		}
		ds.AtlasDo53Ms[ct.Code] = med
	}

	if err := finishObs(cfg, ds, simTotal); err != nil {
		return nil, err
	}
	return ds, nil
}

// markerAddr is the answer the cache-busting tripwire stores under
// each consumed name (TEST-NET-1, never a real measurement target).
var markerAddr = netip.MustParseAddr("192.0.2.1")

// finishObs assembles the observability view from the finished (or
// partially finished) dataset; the snapshot is a pure function of the
// records and accounting, so it inherits their schedule independence.
// The latency histograms are absorbed from the mergeable sketch (same
// bucket layout, exact integer merge), which is what keeps the
// snapshot identical whether clients were retained or discarded, and
// whether the dataset came from one process or N merged shards.
func finishObs(cfg Config, ds *Dataset, simTotal proxynet.SimStats) error {
	reg := obs.NewRegistry()
	if err := absorbSketch(reg, ds.Sketch); err != nil {
		return err
	}
	publishAccounting(reg, ds, simTotal)
	if cfg.Cache != nil {
		// Tripwire totals. Names are unique per run, so guard_hits is
		// zero on a correct campaign; entries counts the consumed
		// names and misses the guard lookups, both pure functions of
		// the workload (the name->shard hash ignores scheduling, so
		// the totals are Parallel-invariant like everything else).
		st := cfg.Cache.Stats()
		reg.Gauge("campaign_cache_guard_hits").Set(float64(st.Hits))
		reg.Gauge("campaign_cache_guard_misses").Set(float64(st.Misses))
		reg.Gauge("campaign_cache_guard_entries").Set(float64(cfg.Cache.Len()))
	}
	ds.Obs = reg.Snapshot()
	return nil
}

// configKey hashes the result-affecting configuration. Two configs
// with the same key produce identical per-country records, so a
// checkpoint journal may only be replayed under the same key. The
// country list deliberately stays out of the hash: a journal written
// while measuring a subset remains valid for the full campaign, which
// is exactly the interrupt-then-resume path. Parallel and Cache are
// schedule/reporting knobs with no effect on the records; AtlasProbes
// only affects the remedy, which is recomputed on every run. The
// leading version is the journaled record's shape: v2 since
// ClientRecord keeps its DoT and DoQ results in Sessions, so that a v1
// journal is refused instead of restored with those results zeroed.
func configKey(cfg Config, providers []anycast.ProviderID) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v2|seed=%d|runs=%d|max=%d|scale=%g|", cfg.Seed, cfg.RunsPerClient, cfg.MaxClients, cfg.ClientScale)
	for _, p := range providers {
		fmt.Fprintf(h, "p=%s|", p)
	}
	for _, k := range cfg.Transports {
		fmt.Fprintf(h, "t=%s|", k)
	}
	fmt.Fprintf(h, "chaos=%g/%g/%g|", cfg.Chaos.ExitChurnProb, cfg.Chaos.HeaderCorruptProb, cfg.Chaos.ConnResetProb)
	if cfg.Breaker != nil {
		fmt.Fprintf(h, "brk=%d/%d/%d|", cfg.Breaker.FailureThreshold, cfg.Breaker.ProbeEvery, cfg.Breaker.SuccessesToClose)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// countryRecord is what measureCountry produces for one country, and
// its checkpoint journal payload: JSON-round-trippable (float64
// survives encoding/json exactly, so restored records are
// byte-identical in the CSV export).
type countryRecord struct {
	Clients []ClientRecord `json:"clients"`
	Accounting
	// SimStats is the country simulator's final counter snapshot,
	// summed into the campaign registry by Run. Per-country sims keep
	// private counters (settle needs sequential per-sim loss deltas),
	// so the registry view is assembled post-hoc.
	SimStats proxynet.SimStats `json:"sim_stats"`
}

// ClientsByCountry groups kept clients per country code.
func (ds *Dataset) ClientsByCountry() map[string][]*ClientRecord {
	out := make(map[string][]*ClientRecord)
	for i := range ds.Clients {
		c := &ds.Clients[i]
		out[c.CountryCode] = append(out[c.CountryCode], c)
	}
	return out
}

// AnalyzedCountries returns the country codes that clear the
// per-country inclusion bar: at least cfg.MinClients clients with a
// valid measurement for every provider (paper §5.1).
func (ds *Dataset) AnalyzedCountries(minClients int, providers []anycast.ProviderID) []string {
	if providers == nil {
		providers = anycast.ProviderIDs()
	}
	var out []string
	for code, clients := range ds.ClientsByCountry() {
		if world.IsExcluded(code) {
			continue
		}
		n := 0
		for _, c := range clients {
			ok := true
			for _, pid := range providers {
				if r, _ := c.DoH.Get(pid); !r.Valid {
					ok = false
					break
				}
			}
			if ok {
				n++
			}
		}
		if n >= minClients {
			out = append(out, code)
		}
	}
	sort.Strings(out) // map iteration order must not leak to callers
	return out
}

// CountryDo53Ms returns the country's Do53 median in milliseconds,
// using client data where valid and the Atlas remedy in the 11
// Super-Proxy countries. The second return is false when no data
// exists.
func (ds *Dataset) CountryDo53Ms(code string) (float64, bool) {
	if med, ok := ds.AtlasDo53Ms[code]; ok {
		return med, true
	}
	var vals []float64
	for i := range ds.Clients {
		if c := &ds.Clients[i]; c.CountryCode == code && c.Do53Valid {
			vals = append(vals, c.Do53Ms)
		}
	}
	med, err := stats.Median(vals)
	return med, err == nil
}

// countrySeed derives a country's independent stream from the
// campaign seed.
func countrySeed(seed int64, code string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, code)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// nameScratch is a worker's reusable buffer for building the per-run
// unique query names (and each client's prefix) without fmt's
// reflection path. Only the buffer is shared between countries; the
// sequence counter stays per-country so the dataset remains a pure
// function of the configuration.
type nameScratch struct {
	buf []byte
	// names holds the query names. A name lives for its run; only the
	// cache-busting tripwire (Config.Cache) keeps names, the name of
	// every run it lets through, so a chunk it pins holds little else.
	names dnswire.StringChunks
	// kept holds the records' prefixes, which live as long as the
	// dataset: apart from the names, so that no kept string pins a
	// chunk of dead ones.
	kept dnswire.StringChunks
}

// format renders fmt.Sprintf("%s-%08x-m.a.com.", code, seq)
// byte-for-byte, cut from the scratch's chunks.
func (s *nameScratch) format(code string, seq int) string {
	b := append(s.buf[:0], code...)
	b = append(b, '-')
	b = appendHex08(b, uint64(seq))
	b = append(b, "-m.a.com."...)
	s.buf = b
	return s.names.Cut(b)
}

// prefix24 renders geoip.Prefix24(addr).String(), cut from the
// chunks of kept strings.
func (s *nameScratch) prefix24(addr netip.Addr) string {
	s.buf = geoip.Prefix24(addr).AppendTo(s.buf[:0])
	return s.kept.Cut(s.buf)
}

// appendHex08 appends v as lowercase hex, zero-padded to at least
// eight digits — the %08x verb.
func appendHex08(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	w := 8
	for w < 16 && v>>(4*uint(w)) != 0 {
		w++
	}
	for i := w - 1; i >= 0; i-- {
		b = append(b, digits[(v>>(4*uint(i)))&0xf])
	}
	return b
}

// smartStaggerMs is the fixed happy-eyeballs stagger (milliseconds)
// the derived smart strategy models between candidate launches. A
// constant, not a Config knob: the column is part of the released
// dataset, so its parameters are pinned like the estimator's.
const smartStaggerMs = 50.0

// smartCandidate reports whether kind can win the derived race: the
// set deriveSmart launches from.
func smartCandidate(kind resolver.Kind) bool {
	return kind == resolver.DoH || slices.Contains(extensions[:], kind)
}

// deriveSmart models the smart racing resolver's behavior on one
// client's measured results for one provider, by the resolver's own
// rule (smart.RaceOutcome): the paper's primary encrypted transport
// launches first, then the extensions in table order, smartStaggerMs
// apart. Invalid or fully blocked transports never launch — the racing
// resolver's breaker eviction, in dataset form — and neither do
// transports the campaign did not measure, which have no result.
func deriveSmart(rec *ClientRecord, pid anycast.ProviderID) SmartResult {
	var kinds [1 + len(extensions)]resolver.Kind
	var launches [1 + len(extensions)]smart.Launch
	n := 0
	if r, _ := rec.DoH.Get(pid); r.Valid {
		kinds[n], launches[n] = resolver.DoH, smart.Launch{First: r.TDoHMs, Reused: r.TDoHRMs}
		n++
	}
	for tr, kind := range extensions {
		if r, _ := rec.Sessions[tr].Get(pid); r.Valid {
			kinds[n], launches[n] = kind, smart.Launch{First: r.FirstMs, Reused: r.ReusedMs}
			n++
		}
	}
	winner, first, steady := smart.RaceOutcome(smartStaggerMs, launches[:n])
	if winner < 0 {
		return SmartResult{}
	}
	return SmartResult{TSmartMs: first, TSmartRMs: steady, Winner: string(kinds[winner]), Valid: true}
}

// countryRun is what one country's measurement loops share: the
// simulator, the accounting, and the steps every run takes around its
// transport's own Measure call — admit before it, settle after it.
type countryRun struct {
	cache   *cache.Cache            // Config.Cache
	policy  *resolver.BreakerPolicy // Config.Breaker
	code    string
	sim     *proxynet.Sim
	scratch *nameScratch
	acct    Accounting
	// uuidSeq numbers the country's unique query names.
	uuidSeq int
	// lossSeen is the simulator's loss counter as of the last settled
	// run; the difference is what the next (sequential) run absorbed.
	lossSeen int64
	// breakers holds one breaker per kind×provider, shared across the
	// country's clients: a transport that is dead country-wide (blocked
	// DoT, chaos-saturated DoH) trips after FailureThreshold consecutive
	// failures, and the remaining runs are skipped instead of measured.
	breakers map[breakerKey]*resolver.Breaker
}

type breakerKey struct {
	kind resolver.Kind
	pid  anycast.ProviderID
}

// breaker returns the kind×provider breaker, nil unless Config.Breaker
// armed them.
func (r *countryRun) breaker(kind resolver.Kind, pid anycast.ProviderID) *resolver.Breaker {
	if r.policy == nil {
		return nil
	}
	b := r.breakers[breakerKey{kind, pid}]
	if b == nil {
		if r.breakers == nil {
			r.breakers = make(map[breakerKey]*resolver.Breaker)
		}
		b = resolver.NewBreaker(*r.policy)
		r.breakers[breakerKey{kind, pid}] = b
	}
	return b
}

// skip counts n runs that were never issued.
func (r *countryRun) skip(kind resolver.Kind, n int) {
	ts := r.acct.Transports[kind]
	ts.Skipped += n
	r.acct.Transports[kind] = ts
}

// admit opens a measurement run: the breaker gate (brk may be nil),
// then a fresh query name, then the cache-busting tripwire
// (Config.Cache) — every run's fresh name must miss the shared answer
// cache; a hit proves a name was reused, so the run is skipped rather
// than measured warm. ok false means the run was skipped, and counted.
func (r *countryRun) admit(kind resolver.Kind, brk *resolver.Breaker) (name string, ok bool) {
	if brk != nil && !brk.Allow() {
		r.skip(kind, 1)
		return "", false
	}
	r.uuidSeq++
	name = r.scratch.format(r.code, r.uuidSeq)
	if r.cache != nil && r.cache.Get(dnswire.NewName(name), dnswire.TypeA) != nil {
		r.skip(kind, 1)
		return "", false
	}
	return name, true
}

// runOutcome is how an issued run ended.
type runOutcome int

const (
	runMeasured    runOutcome = iota // a usable estimate
	runImplausible                   // dropped by the estimator's plausibility checks
	runBlocked                       // dropped by port-853 filtering
	// runPermanent is a failure every later run of the client repeats
	// (Do53 behind a Super Proxy): the runs left are skipped, and
	// counted, so Queries+Skipped still adds up to the configured runs.
	runPermanent
)

// runs issues the n runs of kind one client makes to one destination
// (brk may be nil): each is admitted, measured by measure, settled and
// counted by its outcome. first and reused are the measured runs' mean
// times in milliseconds, got counts those runs and blocked the blocked
// ones. measure is called, never kept, so a closure passed to it stays
// on its caller's stack.
func (r *countryRun) runs(kind resolver.Kind, brk *resolver.Breaker, n int, measure func(name string) (first, reused time.Duration, o runOutcome)) (first, reused float64, got, blocked int) {
loop:
	for i := range n {
		name, ok := r.admit(kind, brk)
		if !ok {
			continue
		}
		f, re, o := measure(name)
		r.settle(kind, brk, name, o)
		switch o {
		case runMeasured:
			first += float64(f) / float64(time.Millisecond)
			reused += float64(re) / float64(time.Millisecond)
			got++
		case runImplausible:
			r.acct.DiscardedImplausible++
		case runBlocked:
			blocked++
		case runPermanent:
			r.skip(kind, n-i-1)
			break loop
		}
	}
	if got > 0 {
		first /= float64(got)
		reused /= float64(got)
	}
	return first, reused, got, blocked
}

// settle closes an issued run: the tripwire's marker answer goes under
// the consumed name, the breaker hears the outcome, and the run lands
// in exactly one accounting bucket, with the loss events it absorbed.
func (r *countryRun) settle(kind resolver.Kind, brk *resolver.Breaker, name string, o runOutcome) {
	if r.cache != nil {
		qname := dnswire.NewName(name)
		m := dnswire.NewQuery(1, qname, dnswire.TypeA).Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.ARecord{Addr: markerAddr},
		})
		r.cache.Put(qname, dnswire.TypeA, m)
	}
	if brk != nil {
		if o != runMeasured {
			brk.Failure()
		} else {
			brk.Success()
		}
	}
	ts := r.acct.Transports[kind]
	ts.Queries++
	losses := r.sim.Stats().LossEvents
	ts.LossEvents += losses - r.lossSeen
	r.lossSeen = losses
	if o != runMeasured {
		ts.Discards++
	} else {
		ts.Successes++
	}
	if o == runBlocked {
		ts.Blocked++
	}
	r.acct.Transports[kind] = ts
}

// clientsIn is the number of exit nodes the campaign provisions in ct:
// its weight times ClientScale, capped at MaxClients, at least one.
func clientsIn(cfg Config, ct world.Country) int {
	return max(min(int(ct.ExitNodeWeight*cfg.ClientScale), cfg.MaxClients), 1)
}

// worker is one worker goroutine's reusable state. Every country the
// worker measures shares its name chunks and its exit node (whose IDs
// are cut from chunks the node carries), and in DiscardClients mode its
// record buffer, so that a kept client allocates only its share of the
// chunks its record's strings are cut from.
type worker struct {
	names nameScratch
	node  proxynet.ExitNode
	// buf holds the records of the country in hand when the dataset
	// does not keep them.
	buf []ClientRecord
}

// measureCountry provisions and measures all of one country's clients
// on a dedicated simulator, appending their records to out, which must
// have room for clientsIn of them: the records are written in place,
// never moved. Cancellation is checked between clients: an abandoned
// country returns the context error and is never journaled, so a
// resumed campaign re-measures it in full.
func measureCountry(ctx context.Context, cfg Config, code string, providers []anycast.ProviderID, w *worker, out []ClientRecord) (countryRecord, error) {
	scratch := &w.names
	run := countryRun{cache: cfg.Cache, policy: cfg.Breaker, code: code, scratch: scratch}
	run.acct.Transports = make(map[resolver.Kind]TransportStats)
	ct, ok := world.ByCode(code)
	if !ok {
		return countryRecord{}, fmt.Errorf("campaign: unknown country %q", code)
	}
	sim := proxynet.NewSim(countrySeed(cfg.Seed, code))
	if cfg.Chaos.Enabled() {
		// A chaos stream of its own, also derived from the campaign
		// seed: per-country, deterministic, schedule-independent.
		sim.EnableChaos(countrySeed(cfg.Seed, code+"/chaos"), cfg.Chaos)
	}
	run.sim = sim
	locator := geoip.NewService(sim.Alloc)

	wants := func(kind resolver.Kind) bool { return slices.Contains(cfg.Transports, kind) }

	// The node is the worker's: the record keeps its ID and position,
	// nothing that points into it.
	node := &w.node
	out = out[:0]
	for range clientsIn(cfg, ct) {
		if err := ctx.Err(); err != nil {
			return countryRecord{}, err
		}
		if err := sim.SelectExitNodeInto(code, node); err != nil {
			return countryRecord{}, err
		}
		// Country cross-check (paper §3.5): the proxy network's label
		// vs the geolocation service's for the /24.
		located, ok := locator.Locate(node.Addr)
		if !ok || located != code {
			run.acct.DiscardedMismatch++
			continue
		}
		out = append(out, ClientRecord{
			ClientID:     node.ID,
			CountryCode:  code,
			Prefix:       scratch.prefix24(node.Addr),
			Pos:          node.Pos,
			NSDistanceKm: geo.DistanceKm(node.Pos, sim.Lab.Pos),
		})
		rec := &out[len(out)-1]
		if wants(resolver.DoH) {
			for _, pid := range providers {
				var res DoHResult
				first, reused, got, _ := run.runs(resolver.DoH, run.breaker(resolver.DoH, pid), cfg.RunsPerClient, func(name string) (time.Duration, time.Duration, runOutcome) {
					obs, gt := sim.MeasureDoH(node, pid, name)
					est, err := core.EstimateDoH(obs)
					if err != nil {
						return 0, 0, runImplausible
					}
					res.PoPID, res.PoPCountry = gt.PoP.ID, gt.PoP.CountryCode
					res.PoPDistanceKm, res.NearestPoPDistanceKm = gt.PoPDistanceKm, gt.NearestPoPDistanceKm
					return est.TDoH, est.TDoHR, runMeasured
				})
				if got > 0 {
					res.TDoHMs, res.TDoHRMs, res.Valid = first, reused, true
				}
				rec.DoH.Set(pid, res)
			}
		}
		if wants(resolver.Do53) {
			first, _, got, _ := run.runs(resolver.Do53, nil, cfg.RunsPerClient, func(name string) (time.Duration, time.Duration, runOutcome) {
				o, _ := sim.MeasureDo53(node, name)
				v, err := core.EstimateDo53(o)
				switch {
				case err == nil:
					return v, 0, runMeasured
				case errors.Is(err, core.ErrSuperProxyResolution):
					// The Super Proxy answers every run of this client.
					return 0, 0, runPermanent
				}
				return 0, 0, runImplausible
			})
			if got > 0 {
				rec.Do53Ms, rec.Do53Valid = first, true
			}
		}
		for tr, kind := range extensions {
			if !wants(kind) {
				continue
			}
			for _, pid := range providers {
				first, reused, got, blocked := run.runs(kind, run.breaker(kind, pid), cfg.RunsPerClient, func(name string) (time.Duration, time.Duration, runOutcome) {
					obs, gt := sim.MeasureSession(proxynet.Transport(tr), node, pid, name)
					if obs.Blocked {
						return 0, 0, runBlocked
					}
					// Ground truth: the extension transports have no
					// estimator of their own.
					return gt.First, gt.Reused, runMeasured
				})
				res := SessionResult{BlockedRuns: blocked, Blocked: got == 0 && blocked > 0}
				if got > 0 {
					res.FirstMs, res.ReusedMs, res.Valid = first, reused, true
				}
				rec.Sessions[tr].Set(pid, res)
			}
		}
		if wants(resolver.Smart) {
			for _, pid := range providers {
				res := deriveSmart(rec, pid)
				rec.Smart.Set(pid, res)
				if res.Valid {
					if run.acct.SmartWins == nil {
						run.acct.SmartWins = make(map[resolver.Kind]int)
					}
					run.acct.SmartWins[resolver.Kind(res.Winner)]++
				}
			}
		}
	}
	if run.breakers != nil {
		run.acct.Breakers = make(map[resolver.Kind]BreakerStats)
		for key, b := range run.breakers {
			bs, snap := run.acct.Breakers[key.kind], b.Snapshot()
			bs.Trips += snap.Trips
			bs.ShortCircuits += snap.ShortCircuits
			bs.Probes += snap.Probes
			if snap.State == resolver.BreakerOpen {
				bs.EndedOpen++
			}
			run.acct.Breakers[key.kind] = bs
		}
	}
	return countryRecord{Clients: out, Accounting: run.acct, SimStats: sim.Stats()}, nil
}
