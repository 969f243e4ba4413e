package campaign

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/world"
)

// Sharded campaign scale-out: ShardCountries deterministically
// partitions the per-country work list so N processes each measure a
// disjoint slice, and Merge recombines their datasets into one that
// is — by the golden test's contract — byte-identical in CSV export
// to an unsharded run. Every per-country record is a pure function of
// (Seed, country), so sharding cannot change any measurement; these
// helpers only have to partition exactly and reassemble in canonical
// order. The checkpoint claim protocol (Config.ClaimOwner) guards the
// partition at runtime even when shard specs overlap or a campaign is
// launched twice.

// ShardCountries returns the countries assigned to shard index out of
// total: the full (or given) country list, sorted, striped round-robin
// so every shard gets a comparable mix of large and small countries.
// index is zero-based. A nil countries means the whole world dataset.
// The assignment is a pure function of (countries, index, total) —
// every shard computes the same partition with no coordination.
func ShardCountries(countries []string, index, total int) ([]string, error) {
	if total <= 0 {
		return nil, fmt.Errorf("campaign: shard total %d, want >= 1", total)
	}
	if index < 0 || index >= total {
		return nil, fmt.Errorf("campaign: shard index %d out of range [0, %d)", index, total)
	}
	if countries == nil {
		for _, ct := range world.All() {
			countries = append(countries, ct.Code)
		}
	}
	sorted := append([]string(nil), countries...)
	sort.Strings(sorted)
	var out []string
	for i, code := range sorted {
		if i%total == index {
			out = append(out, code)
		}
	}
	return out, nil
}

// Merge combines shard datasets into one, equivalent to an unsharded
// run over the union of their countries. It validates what a correct
// shard run guarantees and a corrupt merge would silently break:
// every client appears exactly once, every country comes wholly from
// one part, the parts agree on the seed and on every Atlas median.
// Clients are reassembled in canonical order (sorted by country code,
// preserving each country's internal order), which is the order an
// unsharded campaign emits, so the merged CSV export is byte-identical
// to the unsharded one. Accounting sums by the fold Run applies per
// country, and Obs folds the merged client records into a fresh
// registry beside the merged accounting (the per-run simulator gauges
// are not part of a dataset release, so they are absent rather than
// fabricated). A part whose records were discarded
// (Config.DiscardClients) has nothing to fold and is refused.
func Merge(parts ...*Dataset) (*Dataset, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("campaign: nothing to merge")
	}
	merged := &Dataset{
		AtlasDo53Ms: make(map[string]float64),
		Seed:        parts[0].Seed,
	}
	seenClient := make(map[string]bool)
	countryPart := make(map[string]int)
	for pi, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("campaign: merge part %d is nil", pi)
		}
		if p.Seed != merged.Seed {
			return nil, fmt.Errorf("campaign: merge part %d has seed %d, part 0 has %d", pi, p.Seed, merged.Seed)
		}
		if p.KeptClients != len(p.Clients) {
			return nil, fmt.Errorf("campaign: merge part %d kept %d clients but carries %d records (a DiscardClients run has none to merge)", pi, p.KeptClients, len(p.Clients))
		}
		for i := range p.Clients {
			c := &p.Clients[i]
			if seenClient[c.ClientID] {
				return nil, fmt.Errorf("campaign: client %s appears in more than one merge part", c.ClientID)
			}
			seenClient[c.ClientID] = true
			if prev, ok := countryPart[c.CountryCode]; ok && prev != pi {
				return nil, fmt.Errorf("campaign: country %s is split across merge parts %d and %d (shards must partition countries)", c.CountryCode, prev, pi)
			}
			countryPart[c.CountryCode] = pi
			merged.Clients = append(merged.Clients, *c)
		}
		for code, v := range p.AtlasDo53Ms {
			if old, ok := merged.AtlasDo53Ms[code]; ok && old != v {
				return nil, fmt.Errorf("campaign: merge parts disagree on Atlas median for %s: %v vs %v", code, old, v)
			}
			merged.AtlasDo53Ms[code] = v
		}
		merged.KeptClients += p.KeptClients
		merged.add(p.Accounting)
		merged.Partial = merged.Partial || p.Partial
	}
	// Canonical client order: the unsharded campaign feeds countries in
	// sorted-code order (world.All is sorted, ShardCountries sorts), so
	// a stable sort by country code — each country's clients arrive
	// contiguously from a single part, preserving measurement order —
	// reproduces it exactly.
	sort.SliceStable(merged.Clients, func(i, j int) bool {
		return merged.Clients[i].CountryCode < merged.Clients[j].CountryCode
	})
	reg := obs.NewRegistry()
	(&fold{reg: reg}).clients(merged.Clients)
	publishDataset(reg, merged)
	merged.Obs = reg.Snapshot()
	return merged, nil
}
