package campaign

import (
	"fmt"
	"sort"

	"repro/internal/world"
)

// Sharded campaign scale-out: ShardCountries deterministically
// partitions the per-country work list so N processes each measure a
// disjoint slice into a checkpoint journal, and a run of the whole
// campaign over that journal recombines them: it restores every
// country and measures none, so its dataset is the unsharded run's.
// Every per-country record is a pure function of (Seed, country), so
// sharding cannot change any measurement. Shards never coordinate at
// runtime: specs that overlap each measure (or restore) their own
// slice, and a country two of them measure gets the same record under
// the same key.

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
