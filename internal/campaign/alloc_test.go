package campaign

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/proxynet"
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
// end. Folded straight into the registry, it read 1.24: the Atlas
// remedy, the run's registry, the dataset's one record slice and what
// is left of the per-country set-up spread over 1,546 clients (the
// benchmark's full world reads 0.51), and a share of a 4 KiB chunk for
// the two kept strings, the 26 names and the export's number fields.
// With no query name per run, no Atlas probe ID and no fmt in the
// country seed, it read 0.46, while each country built a simulator, an
// address allocator, two accounting maps and its histogram's name. With
// each worker resetting one simulator and one pair of maps, and the
// names in a shared table, it read 0.34, and 3.81 under the resilience
// tests' soakChaos, where every discarded run boxed its implausible
// error. With those errors three sentinels built once, it read 0.32
// clean and 0.34 under soakChaos, while each export wrote its rows
// through encoding/csv with a string per number. Appended in place, the
// export costs one buffer a table, and it reads 0.255 clean and 0.284
// under soakChaos (the same under -race). Each row's budget is its
// reading plus 15 %.
// docs/performance.md "A country costs its clients" and "Exporting
// costs its bytes" have the rules that hold it; CHANGES.md has the
// per-site history.
func TestCampaignAllocBudget(t *testing.T) {
	for _, row := range []struct {
		name   string
		chaos  proxynet.Chaos
		budget float64
	}{
		{"clean", proxynet.Chaos{}, 0.29},
		{"soakChaos", soakChaos, 0.32},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := stripeConfig(t)
			cfg.Parallel = 1
			cfg.Chaos = row.chaos
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
			t.Logf("%d kept clients, %.3f mallocs per client, %.0f bytes per client",
				kept, perClient, float64(after.TotalAlloc-before.TotalAlloc)/float64(kept))
			if perClient > row.budget {
				t.Errorf("campaign allocates %.2f times per kept client, budget %.2f", perClient, row.budget)
			}
		})
	}
}
