package campaign

import (
	"slices"
	"sort"

	"repro/internal/anycast"
	"repro/internal/resolver"
	"repro/internal/smart"
	"repro/internal/stats"
	"repro/internal/world"
)

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

// countSmartWins counts the clients' valid smart races by winning kind,
// nil when there is none: the one count Run and ReadSmartCSV both use.
func countSmartWins(clients []ClientRecord) map[resolver.Kind]int {
	var wins map[resolver.Kind]int
	for i := range clients {
		for _, pid := range anycast.ProviderIDs() {
			if res, _ := clients[i].Smart.Get(pid); res.Valid {
				if wins == nil {
					wins = make(map[resolver.Kind]int)
				}
				wins[resolver.Kind(res.Winner)]++
			}
		}
	}
	return wins
}
