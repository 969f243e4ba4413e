package campaign

import (
	"bytes"
	"testing"

	"repro/internal/anycast"
	"repro/internal/cache"
	"repro/internal/resolver"
)

// TestCacheGuardByteIdenticalCSV is the golden determinism check for
// Config.Cache: arming the cache-busting tripwire must not perturb a
// single record, so the guarded campaign's CSV export is byte-for-byte
// the unguarded seed run's.
func TestCacheGuardByteIdenticalCSV(t *testing.T) {
	plain, err := Run(smallConfig("BR", "IT", "US"))
	if err != nil {
		t.Fatal(err)
	}
	guardedCfg := smallConfig("BR", "IT", "US")
	guardedCfg.Cache = cache.New(cache.Config{MaxEntries: 1 << 16})
	guarded, err := Run(guardedCfg)
	if err != nil {
		t.Fatal(err)
	}

	var want, got bytes.Buffer
	if err := plain.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if err := guarded.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("guarded campaign CSV differs from seed run (%d vs %d bytes)", got.Len(), want.Len())
	}
	want.Reset()
	got.Reset()
	if err := plain.WriteAtlasCSV(&want); err != nil {
		t.Fatal(err)
	}
	if err := guarded.WriteAtlasCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("guarded campaign atlas CSV differs from seed run")
	}

	// Cache-busting held: unique names mean every guard lookup missed.
	st := guardedCfg.Cache.Stats()
	if st.Hits != 0 {
		t.Errorf("guard hits = %d, want 0 (names reused?)", st.Hits)
	}
	if st.Misses == 0 || guardedCfg.Cache.Len() == 0 {
		t.Errorf("guard saw no traffic: misses=%d entries=%d", st.Misses, guardedCfg.Cache.Len())
	}
	// Every issued run was both looked up and marked.
	var issued int64
	for _, ts := range guarded.Transports {
		issued += int64(ts.Queries)
	}
	if st.Misses != issued {
		t.Errorf("guard lookups = %d, want %d (one per issued run)", st.Misses, issued)
	}
	// No run was skipped by the tripwire (breaker/super-proxy skips
	// must match the unguarded run exactly for the CSV to be equal,
	// but assert the accounting explicitly too).
	for kind, ts := range guarded.Transports {
		if ts.Skipped != plain.Transports[kind].Skipped {
			t.Errorf("%s skipped = %d, want %d", kind, ts.Skipped, plain.Transports[kind].Skipped)
		}
	}
}

// TestCacheGuardGaugesPublished checks the tripwire totals land in the
// observability snapshot, and that they are Parallel-invariant.
func TestCacheGuardGaugesPublished(t *testing.T) {
	gauges := func(parallel int) map[string]float64 {
		cfg := smallConfig("BR", "IT", "ZA", "TH")
		cfg.Cache = cache.New(cache.Config{MaxEntries: 1 << 16})
		cfg.Parallel = parallel
		ds, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, g := range ds.Obs.Gauges {
			out[g.Name] = g.Value
		}
		return out
	}
	serial := gauges(1)
	if serial["campaign_cache_guard_hits"] != 0 {
		t.Errorf("campaign_cache_guard_hits = %g, want 0", serial["campaign_cache_guard_hits"])
	}
	if serial["campaign_cache_guard_misses"] <= 0 || serial["campaign_cache_guard_entries"] <= 0 {
		t.Errorf("guard gauges missing or zero: %v", serial)
	}
	wide := gauges(4)
	for _, name := range []string{"campaign_cache_guard_hits", "campaign_cache_guard_misses", "campaign_cache_guard_entries"} {
		if serial[name] != wide[name] {
			t.Errorf("%s differs by schedule: serial=%g parallel=%g", name, serial[name], wide[name])
		}
	}
}

// TestCacheGuardSkipsReusedNames proves the tripwire actually fires: a
// pre-poisoned cache (markers under names the campaign will draw)
// turns those runs into skips instead of warm-cache measurements.
func TestCacheGuardSkipsReusedNames(t *testing.T) {
	cfg := smallConfig("US")
	cfg.Transports = []resolver.Kind{resolver.DoH}
	cfg.Cache = cache.New(cache.Config{MaxEntries: 1 << 16})

	// Run once to learn the names this seed draws, then replay the
	// same campaign against the already-populated cache: every name
	// now collides, so every run must be skipped.
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Transports[resolver.DoH].Skipped != 0 {
		t.Fatalf("clean run skipped %d runs", first.Transports[resolver.DoH].Skipped)
	}
	preHits := cfg.Cache.Stats().Hits

	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := second.Transports[resolver.DoH]
	if ts.Queries != 0 {
		t.Errorf("poisoned run still issued %d queries", ts.Queries)
	}
	if ts.Skipped == 0 {
		t.Error("poisoned run skipped nothing")
	}
	if hits := cfg.Cache.Stats().Hits - preHits; int64(ts.Skipped) != hits {
		t.Errorf("skips (%d) != guard hits (%d)", ts.Skipped, hits)
	}
	for _, c := range second.Clients {
		for _, pid := range anycast.ProviderIDs() {
			if res, _ := c.DoH.Get(pid); res.Valid {
				t.Fatalf("client %s provider %s valid despite all runs skipped", c.ClientID, pid)
			}
		}
	}
}
