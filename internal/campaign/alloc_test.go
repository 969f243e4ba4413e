package campaign

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/resolver"
)

// TestCampaignAllocBudget bounds what one kept client costs in heap
// allocations through Run and both CSV exports, on the benchmark's own
// stripe (14 countries, five strategies). It read 675.5 while MeasureDoH
// scheduled its 22 steps as closures on an event heap and 48.5 since:
// 26 query names, the record's four result maps (8), one string per CSV
// row (9), the exit node, its ID and its prefix, and the per-country
// set-up and Atlas remedy spread over 1,546 clients (the full world
// reads about 3 lower). docs/performance.md "The campaign's inner loop"
// has the per-site table. The budget is what the benchmark's 3 % bound
// on the campaign workload's allocs_per_op would refuse too.
func TestCampaignAllocBudget(t *testing.T) {
	countries, err := ShardCountries(nil, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2021)
	cfg.Transports = []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT, resolver.DoQ, resolver.Smart}
	cfg.Countries = countries
	cfg.Parallel = 1
	pass := func() int {
		ds, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteSmartCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
		return ds.KeptClients
	}
	pass() // page in the world tables and the shared provider catalogue

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	kept := pass()
	runtime.ReadMemStats(&after)
	perClient := float64(after.Mallocs-before.Mallocs) / float64(kept)
	t.Logf("%d kept clients, %.1f mallocs per client, %.0f bytes per client",
		kept, perClient, float64(after.TotalAlloc-before.TotalAlloc)/float64(kept))
	const budget = 50
	if perClient > budget {
		t.Errorf("campaign allocates %.1f times per kept client, budget %d", perClient, budget)
	}
}
