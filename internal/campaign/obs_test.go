package campaign

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/anycast"
	"repro/internal/obs"
	"repro/internal/resolver"
	"repro/internal/stats"
)

// The sketch answers quantiles from its buckets. On the benchmark's
// stripe, the p50, p90 and p99 of every provider's campaign_doh_<p>_ms
// sketch lie within one bucket of the exact quantile (stats.Quantile)
// of the clients' own values: docs/scaleout.md's accuracy contract,
// held on campaign data rather than on synthetic samples.
func TestSketchQuantilesWithinOneBucket(t *testing.T) {
	ds, err := Run(stripeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	bounds := obs.DefaultLatencyBuckets()
	for _, pid := range anycast.ProviderIDs() {
		key := "campaign_doh_" + string(pid) + "_ms"
		var xs []float64
		for i := range ds.Clients {
			if res, _ := ds.Clients[i].DoH.Get(pid); res.Valid {
				xs = append(xs, float64(msDuration(res.TDoHMs)))
			}
		}
		h := ds.Sketch.Get(key)
		if h == nil || h.Count() != int64(len(xs)) || len(xs) < 100 {
			t.Fatalf("%s: sketch %v against %d valid client values", key, h, len(xs))
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			exact, err := stats.Quantile(xs, q)
			if err != nil {
				t.Fatal(err)
			}
			// The exact value's bucket, widened by one bucket each way.
			bi := obs.BucketIndex(bounds, time.Duration(exact))
			lower, upper := time.Duration(0), bounds[len(bounds)-1]
			if bi >= 2 {
				lower = bounds[bi-2]
			}
			if bi+1 < len(bounds) {
				upper = bounds[bi+1]
			}
			if got := h.Quantile(q); got < lower || got > upper {
				t.Errorf("%s p%g: sketch %v outside [%v, %v] around the exact %v",
					key, 100*q, got, lower, upper, time.Duration(exact))
			}
		}
	}
}

// TestDo53SkippedRunsAccounted is the regression test for the Do53
// accounting bug: in a Super-Proxy country the loop broke out on the
// first estimator error and the remaining configured runs simply
// vanished — neither queried nor discarded nor skipped. Now
// Queries + Skipped must add up to clients x RunsPerClient.
func TestDo53SkippedRunsAccounted(t *testing.T) {
	cfg := smallConfig("US") // Super-Proxy country: every Do53 run invalid
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients := len(ds.Clients) + ds.DiscardedMismatch
	st := ds.Transports[resolver.Do53]
	if st.Queries != clients {
		t.Errorf("Do53 queries = %d, want %d (one per client before the permanent failure)", st.Queries, clients)
	}
	wantSkipped := clients * (cfg.RunsPerClient - 1)
	if st.Skipped != wantSkipped {
		t.Errorf("Do53 skipped = %d, want %d", st.Skipped, wantSkipped)
	}
	if got, want := st.Queries+st.Skipped, clients*cfg.RunsPerClient; got != want {
		t.Errorf("Do53 queries+skipped = %d, want %d (nothing may vanish)", got, want)
	}
	if st.Discards != clients {
		t.Errorf("Do53 discards = %d, want %d (every issued run is invalid in a Super-Proxy country)", st.Discards, clients)
	}
	// The §3.5 invalidation is not an implausibility discard: any
	// implausible count must be attributable to the DoH estimator, so
	// it is bounded by the DoH discard tally.
	if ds.DiscardedImplausible > ds.Transports[resolver.DoH].Discards {
		t.Errorf("DiscardedImplausible = %d exceeds DoH discards %d; Do53 invalidation leaked into it",
			ds.DiscardedImplausible, ds.Transports[resolver.DoH].Discards)
	}

	// In a normal country nothing is skipped and every run is issued.
	cfg2 := smallConfig("BR")
	ds2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	st2 := ds2.Transports[resolver.Do53]
	clients2 := len(ds2.Clients) + ds2.DiscardedMismatch
	if st2.Skipped != 0 {
		t.Errorf("BR Do53 skipped = %d, want 0", st2.Skipped)
	}
	if st2.Queries != clients2*cfg2.RunsPerClient {
		t.Errorf("BR Do53 queries = %d, want %d", st2.Queries, clients2*cfg2.RunsPerClient)
	}
}

// TestDoTBlockedRunsAccounted is the regression test for the DoT
// blocking bug, run for every extension transport:
// SessionResult.Blocked only reports total blocking, so a client with
// one blocked and one successful run used to be indistinguishable from
// an unblocked one. BlockedRuns now carries the per-client count, and
// summing it must reproduce the transport total exactly.
func TestDoTBlockedRunsAccounted(t *testing.T) {
	for tr, kind := range extensions {
		cfg := smallConfig("BR", "NG", "ZA")
		cfg.Transports = []resolver.Kind{resolver.DoH, resolver.Do53, kind}
		ds, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sumBlockedRuns, partial int
		for _, c := range ds.Clients {
			for _, pid := range anycast.ProviderIDs() {
				res, _ := c.Sessions[tr].Get(pid)
				sumBlockedRuns += res.BlockedRuns
				if res.BlockedRuns > 0 && res.Valid {
					partial++
					if res.Blocked {
						t.Fatalf("%s client %s: Blocked set despite a valid run (BlockedRuns=%d)", kind, c.ClientID, res.BlockedRuns)
					}
				}
				if res.Blocked && res.BlockedRuns == 0 {
					t.Fatalf("%s client %s: Blocked set with zero blocked runs", kind, c.ClientID)
				}
			}
		}
		if got := ds.Transports[kind].Blocked; sumBlockedRuns != got {
			t.Errorf("%s: sum of per-client BlockedRuns = %d, transport Blocked = %d; accounting diverged", kind, sumBlockedRuns, got)
		}
		// At a 3.5% (DoT) or 4.5% (DoQ) block probability with 2 runs
		// per provider, partial blocking dominates total blocking; the
		// fixture must actually contain it or this test is vacuous.
		if partial == 0 {
			t.Fatalf("no partially-blocked %s client in fixture; pick a different seed", kind)
		}
	}
}

// TestCampaignObsSnapshot checks the Dataset's observability snapshot:
// the aggregates agree with the dataset itself.
func TestCampaignObsSnapshot(t *testing.T) {
	cfg := smallConfig("BR", "US")
	cfg.Transports = []resolver.Kind{resolver.DoH, resolver.Do53, resolver.DoT}
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := ds.Obs

	gauge := func(name string) float64 {
		t.Helper()
		for _, g := range snap.Gauges {
			if g.Name == name {
				return g.Value
			}
		}
		t.Fatalf("gauge %q missing from snapshot", name)
		return 0
	}
	if got := gauge("campaign_clients"); got != float64(len(ds.Clients)) {
		t.Errorf("campaign_clients = %g, want %d", got, len(ds.Clients))
	}
	if got := gauge("campaign_do53_skipped"); got != float64(ds.Transports[resolver.Do53].Skipped) {
		t.Errorf("campaign_do53_skipped = %g, want %d", got, ds.Transports[resolver.Do53].Skipped)
	}
	if got := gauge("campaign_dot_blocked"); got != float64(ds.Transports[resolver.DoT].Blocked) {
		t.Errorf("campaign_dot_blocked = %g, want %d", got, ds.Transports[resolver.DoT].Blocked)
	}
	if _, ok := ds.AtlasDo53Ms["US"]; !ok {
		t.Fatal("US Atlas remedy missing")
	}
	if got := gauge("campaign_atlas_do53_ms_US"); got != ds.AtlasDo53Ms["US"] {
		t.Errorf("campaign_atlas_do53_ms_US = %g, want %g", got, ds.AtlasDo53Ms["US"])
	}

	// Histogram counts line up with valid client records.
	var validDoH, validDo53 int
	for _, c := range ds.Clients {
		for _, pid := range anycast.ProviderIDs() {
			if res, _ := c.DoH.Get(pid); res.Valid {
				validDoH++
			}
		}
		if c.Do53Valid {
			validDo53++
		}
	}
	var gotDoH, gotDo53 int64
	for _, h := range snap.Histograms {
		switch {
		case h.Name == "campaign_do53_ms":
			gotDo53 = h.Count
		case len(h.Name) > len("campaign_doh_") && h.Name[:len("campaign_doh_")] == "campaign_doh_":
			gotDoH += h.Count
		}
	}
	if gotDoH != int64(validDoH) {
		t.Errorf("per-provider DoH histogram counts sum to %d, want %d valid results", gotDoH, validDoH)
	}
	if gotDo53 != int64(validDo53) {
		t.Errorf("campaign_do53_ms count = %d, want %d valid results", gotDo53, validDo53)
	}
}

// TestCampaignObsDeterministicAcrossParallelism is the ISSUE 2
// acceptance criterion at the campaign layer: the snapshot is a pure
// function of the configuration, independent of the worker count.
func TestCampaignObsDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallel int) obs.Snapshot {
		cfg := smallConfig("BR", "IT", "NG", "US")
		cfg.Transports = []resolver.Kind{resolver.DoH, resolver.Do53, resolver.DoT}
		cfg.Parallel = parallel
		ds, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds.Obs
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("campaign snapshots differ between Parallel=1 and Parallel=4")
	}
}

// TestCampaignSharedRegistry checks that a caller-supplied registry
// receives the same aggregates the snapshot reports.
func TestCampaignSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallConfig("BR")
	cfg.Obs = reg
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reg.Snapshot(), ds.Obs) {
		t.Fatal("caller registry snapshot differs from Dataset.Obs")
	}
}
