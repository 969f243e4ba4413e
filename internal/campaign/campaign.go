// Package campaign orchestrates the paper's measurement campaign:
// for every country in the proxy network, it provisions exit nodes
// (10 to 282 per country, matching BrightData availability), runs two
// measurement runs per client — each over all four DoH providers plus
// the client's default Do53 resolver — applies the estimator,
// cross-checks country labels against the geolocation service
// (discarding mismatches, paper: 0.88%), and patches the 11
// Super-Proxy countries' Do53 data with Atlas probe measurements.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/anycast"
	"repro/internal/atlas"
	"repro/internal/checkpoint"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/proxynet"
	"repro/internal/resolver"
	"repro/internal/world"
)

// Config parameterizes a campaign.
type Config struct {
	// Seed makes the whole campaign reproducible.
	Seed int64
	// MinClients is the per-country inclusion bar the analysis applies
	// (analysis.New's argument; the paper's threshold is 10 clients).
	// The campaign measures every country regardless and never reads it.
	MinClients int
	// ClientScale multiplies each country's exit-node weight to set
	// its client count, capped at MaxClients; zero means 1.0 (≈ 9.7k
	// clients), and DefaultConfig's 2.7 gives ≈ 21.5k, the paper's ~22k.
	ClientScale float64
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
}

// The paper's campaign shape (§3): every client is measured over all
// four DoH providers (anycast.ProviderIDs) in RunsPerClient runs, a
// country provisions at most MaxClients exit nodes, and the Do53 remedy
// takes AtlasProbes RIPE Atlas probes in each Super-Proxy country.
const (
	RunsPerClient = 2
	MaxClients    = 282
	AtlasProbes   = 25
)

// DefaultConfig reproduces the paper's campaign: with the default scale
// it collects on the order of the paper's 22,052 unique clients.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		MinClients:  10,
		ClientScale: 2.7,
		Transports:  DefaultTransports(),
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
	// SmartWins counts the valid smart races in Clients by winning
	// kind (countSmartWins): nil when there is none.
	SmartWins map[resolver.Kind]int
	// Obs is the campaign's observability snapshot: per-provider and
	// per-country latency histograms, accounting gauges, and the
	// summed injected-failure counts. Deterministic for a given Config
	// regardless of Parallel, and of which countries were restored
	// from the journal.
	Obs obs.Snapshot
	// KeptClients counts the clients the campaign measured and kept:
	// len(Clients) for every dataset Run or ReadCSV returns.
	KeptClients int
	// Seed echoes the campaign seed.
	Seed int64
	// Partial reports that the campaign was canceled before every
	// country finished: Clients covers only the completed countries
	// and the Atlas remedy was skipped.
	Partial bool
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
	if cfg.ClientScale <= 0 {
		cfg.ClientScale = 1
	}
	transports, err := normalizeTransports(cfg.Transports)
	if err != nil {
		return nil, err
	}
	// The one calibration both networks draw from: every country's
	// simulator and the Atlas remedy's probes.
	params := netsim.DefaultParams()
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
	// listed it in, or of whether a country was measured or restored
	// from the journal. This is what lets a run over its shards' journal
	// reproduce the exact byte sequence of an unsharded run.
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
		journal, err = checkpoint.Open(cfg.CheckpointDir, configKey(cfg))
		if err != nil {
			return nil, err
		}
	}
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

	// Each country is measured on its worker's simulator, reset to a
	// seed of its own from the campaign seed and the country code, as a
	// fresh simulator would be. This makes the dataset a pure function
	// of the configuration: the same records come back whether
	// countries run serially or on N workers, and a journaled country
	// can be loaded back verbatim on resume.
	//
	// Client records are the one order-dependent output, and each is
	// written once: a country's client count is known before it runs,
	// so the dataset's records are allocated in one piece, country i
	// fills the window at offset[i] in place, and the windows are closed
	// up in country order once the workers are done.
	offset := make([]int, len(countries)+1)
	for i, code := range countries {
		offset[i+1] = offset[i]
		if ct, ok := world.ByCode(code); ok {
			offset[i+1] += clientsIn(cfg, ct)
		}
	}
	clients := make([]ClientRecord, offset[len(countries)])
	kept := make([]int, len(countries))
	errs := make([]error, len(countries))
	completed := make([]bool, len(countries))
	// Shared aggregates, folded into as countries complete: every
	// histogram bucket and accounting figure is a commutative and
	// associative sum, so the result is schedule-independent.
	reg := obs.NewRegistry()
	var aggMu sync.Mutex
	var simTotal proxynet.SimStats
	var wg sync.WaitGroup
	work := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{
				fold:       fold{reg: reg},
				transports: make(map[resolver.Kind]TransportStats, len(transports)),
			}
			// window returns the storage country idx's records go to,
			// empty, with room for all of them.
			window := func(idx int) []ClientRecord {
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
						win := window(idx)
						if len(rec.Clients) > cap(win) {
							return rec, true, fmt.Errorf("campaign: journal record for %s holds %d clients, the country provisions %d", code, len(rec.Clients), cap(win))
						}
						rec.Clients = append(win, rec.Clients...)
						return rec, true, nil
					}
				}
				rec, err := measureCountry(ctx, cfg, params, code, w, window(idx))
				if err == nil && journal != nil {
					err = journal.Put(code, rec)
				}
				return rec, false, err
			}
			for idx := range work {
				rec, resumed, err := country(idx)
				if err != nil {
					errs[idx] = err
					continue
				}
				// Fold the country into the aggregates: the histograms
				// take atomic adds, the rest the lock.
				kept[idx] = len(rec.Clients)
				w.fold.clients(rec.Clients)
				aggMu.Lock()
				ds.add(rec.Accounting)
				simTotal = addSimStats(simTotal, rec.SimStats)
				aggMu.Unlock()
				completed[idx] = true
				countryDone(countries[idx], kept[idx], resumed)
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
	n := 0
	for i := range countries {
		if completed[i] {
			n += copy(clients[n:], clients[offset[i]:offset[i]+kept[i]])
		}
	}
	ds.Clients = clients[:n]
	ds.KeptClients = len(ds.Clients)
	ds.SmartWins = countSmartWins(ds.Clients)

	if err := ctx.Err(); err != nil {
		// Partial flush: the completed countries' records, accounting,
		// and observability — but no Atlas remedy, which would hide
		// the missing Do53 coverage behind fresh probe data.
		ds.Partial = true
		publish(reg, ds, simTotal)
		return ds, fmt.Errorf("campaign: interrupted: %w", err)
	}

	// Remedy: Atlas Do53 medians for the Super-Proxy countries. The
	// probe network shares the simulators' latency model and targets
	// the same lab endpoint.
	at := atlas.New(cfg.Seed+1, params.Latency, netsim.Lab)
	for _, ct := range world.SuperProxyCountries() {
		med, err := at.CountryMedianDo53(ct.Code, AtlasProbes, 10)
		if err != nil {
			return nil, err
		}
		ds.AtlasDo53Ms[ct.Code] = med
	}

	publish(reg, ds, simTotal)
	return ds, nil
}

// configKey hashes the result-affecting configuration. Two configs
// with the same key produce identical per-country records, so a
// checkpoint journal may only be replayed under the same key. The
// country list deliberately stays out of the hash: a journal written
// while measuring a subset remains valid for the full campaign, which
// is exactly the interrupt-then-resume path, and it is how shards
// recombine: they journal their slices under one key, and a run of the
// whole campaign over their records restores every country. Shards
// whose lists overlap write the same record for a country they share.
// Parallel is a schedule knob with no effect on the records; the Atlas
// remedy is recomputed on every run. The transports are hashed as a
// set, in resolver.Kinds order: the order a flag listed them in
// changes no record, so it must not change the key. The leading
// version is the journaled record's shape: v2 since ClientRecord keeps
// its DoT and DoQ results in Sessions, so that a v1 journal is refused
// instead of restored with those results zeroed. A record that still
// carries smart_wins and an 11-key sim_stats is v2 too: the decoder
// ignores those keys, and Run counts the win split from the records.
func configKey(cfg Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v2|seed=%d|runs=%d|max=%d|scale=%g|", cfg.Seed, RunsPerClient, MaxClients, cfg.ClientScale)
	for _, p := range anycast.ProviderIDs() {
		fmt.Fprintf(h, "p=%s|", p)
	}
	for _, k := range resolver.Kinds() {
		if slices.Contains(cfg.Transports, k) {
			fmt.Fprintf(h, "t=%s|", k)
		}
	}
	fmt.Fprintf(h, "chaos=%g/%g/%g|", cfg.Chaos.ExitChurnProb, cfg.Chaos.HeaderCorruptProb, cfg.Chaos.ConnResetProb)
	return fmt.Sprintf("%016x", h.Sum64())
}
