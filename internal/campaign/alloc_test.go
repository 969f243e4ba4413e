package campaign

import (
	"io"
	"runtime"
	"testing"
)

// TestCampaignAllocBudget bounds what one kept client costs in heap
// allocations through Run and both CSV exports, on the benchmark's own
// stripe (14 countries, five strategies). It read 675.5 while MeasureDoH
// scheduled its 22 steps as closures on an event heap, 48.5 while each
// query name and each CSV row was a string of its own, and 13.9 since:
// the record's four result maps (8), the exit node, its ID and its
// prefix (3), the per-country set-up and Atlas remedy spread over 1,546
// clients (the benchmark's full world reads 13.26), and a share of a
// 4 KiB chunk for the 26 names and the export's number fields.
// docs/performance.md "The campaign's inner loop" has the per-site
// table.
func TestCampaignAllocBudget(t *testing.T) {
	cfg := stripeConfig(t)
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
	const budget = 15
	if perClient > budget {
		t.Errorf("campaign allocates %.1f times per kept client, budget %d", perClient, budget)
	}
}
