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
// query name and each CSV row was a string of its own, 13.9 while the
// record's four per-provider tables were maps (8) and every client had
// an exit node of its own (1), 4.8 while each country rebuilt the
// world's tables and a sketch of its own, 3.32 while the two strings
// the record keeps, its client ID and its prefix, were an allocation
// each, and 1.32 once they were cut from chunks too, while the run's
// latency histograms were a sketch set copied into its registry at the
// end. Folded straight into the registry, it reads 1.24: the Atlas
// remedy, the run's registry, the dataset's one record slice and what
// is left of the per-country set-up spread over 1,546 clients (the
// benchmark's full world reads 0.51), and a share of a 4 KiB chunk for
// the two kept strings, the 26 names and the export's number fields.
// The budget is 1.24 plus 15 % (-race reads 1.36–1.38).
// docs/performance.md "A country costs its clients" has the rules that
// hold it; CHANGES.md has the per-site history.
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
	t.Logf("%d kept clients, %.2f mallocs per client, %.0f bytes per client",
		kept, perClient, float64(after.TotalAlloc-before.TotalAlloc)/float64(kept))
	const budget = 1.43
	if perClient > budget {
		t.Errorf("campaign allocates %.2f times per kept client, budget %.2f", perClient, budget)
	}
}
