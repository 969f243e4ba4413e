package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/anycast"
	"repro/internal/checkpoint"
	"repro/internal/proxynet"
	"repro/internal/resolver"
	"repro/internal/world"
)

func TestShardCountriesPartition(t *testing.T) {
	countries := []string{"US", "BR", "IT", "NG", "AR", "MX", "ID"}
	const total = 3
	seen := map[string]int{}
	for i := 0; i < total; i++ {
		part, err := ShardCountries(countries, i, total)
		if err != nil {
			t.Fatal(err)
		}
		if len(part) == 0 {
			t.Errorf("shard %d/%d is empty", i, total)
		}
		for _, code := range part {
			if prev, dup := seen[code]; dup {
				t.Errorf("country %s assigned to shards %d and %d", code, prev, i)
			}
			seen[code] = i
		}
		// Deterministic: recomputing the same shard yields the same list.
		again, err := ShardCountries(countries, i, total)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(part, again) {
			t.Errorf("shard %d/%d not deterministic: %v vs %v", i, total, part, again)
		}
	}
	if len(seen) != len(countries) {
		t.Errorf("shards cover %d of %d countries", len(seen), len(countries))
	}

	// Input order must not matter: the partition is over the sorted list.
	shuffled := []string{"ID", "AR", "US", "MX", "BR", "NG", "IT"}
	a, _ := ShardCountries(countries, 1, total)
	b, _ := ShardCountries(shuffled, 1, total)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("shard assignment depends on input order: %v vs %v", a, b)
	}

	// nil means the whole world dataset.
	var all []string
	for i := 0; i < total; i++ {
		part, err := ShardCountries(nil, i, total)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, part...)
	}
	sort.Strings(all)
	var want []string
	for _, ct := range world.All() {
		want = append(want, ct.Code)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(all, want) {
		t.Errorf("nil-country shards do not cover the world dataset: %d vs %d codes", len(all), len(want))
	}

	// Bounds checking.
	for _, bad := range []struct{ index, total int }{
		{0, 0}, {0, -1}, {-1, 2}, {2, 2}, {5, 3},
	} {
		if _, err := ShardCountries(countries, bad.index, bad.total); err == nil {
			t.Errorf("ShardCountries(%d, %d) accepted", bad.index, bad.total)
		}
	}
}

// TestShardMergeByteIdenticalCSV is the heart of the scale-out
// contract: run the same campaign unsharded and as three shards, push
// every shard through the CSV export/import cycle a real scale-out
// uses, merge, and require the merged exports to be byte-identical to
// the unsharded run's.
func TestShardMergeByteIdenticalCSV(t *testing.T) {
	countries := []string{"BR", "US", "IT", "NG", "AR", "MX", "ID", "DE", "TH"}
	cfg := smallConfig(countries...)
	unsharded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := exportAll(t, unsharded)
	// The analysis/sketch comparisons below go against the reimported
	// unsharded dataset: the shard parts pass through the CSV's
	// 4-decimal rounding, so that — not the in-memory run — is the
	// like-for-like reference. The byte-identity check against the
	// in-memory run's export stays the primary contract.
	var umain, uatlas bytes.Buffer
	if err := unsharded.WriteCSV(&umain); err != nil {
		t.Fatal(err)
	}
	if err := unsharded.WriteAtlasCSV(&uatlas); err != nil {
		t.Fatal(err)
	}
	reimported, err := ReadCSV(&umain, &uatlas)
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	parts := make([]*Dataset, shards)
	for i := 0; i < shards; i++ {
		sub, err := ShardCountries(countries, i, shards)
		if err != nil {
			t.Fatal(err)
		}
		scfg := cfg
		scfg.Countries = sub
		ds, err := Run(scfg)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		var main, atlas bytes.Buffer
		if err := ds.WriteCSV(&main); err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteAtlasCSV(&atlas); err != nil {
			t.Fatal(err)
		}
		parts[i], err = ReadCSV(&main, &atlas)
		if err != nil {
			t.Fatalf("shard %d reimport: %v", i, err)
		}
	}

	merged, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := exportAll(t, merged); !bytes.Equal(got, want) {
		t.Error("sharded-then-merged CSV differs from unsharded run")
	}
	if merged.KeptClients != len(unsharded.Clients) {
		t.Errorf("merged KeptClients = %d, want %d", merged.KeptClients, len(unsharded.Clients))
	}

	// Dataset-level analysis agrees too, not just the bytes.
	for _, code := range countries {
		wm, wok := reimported.CountryDo53Ms(code)
		gm, gok := merged.CountryDo53Ms(code)
		if wok != gok || wm != gm {
			t.Errorf("CountryDo53Ms(%s) = %v,%v; unsharded %v,%v", code, gm, gok, wm, wok)
		}
	}
	if !reflect.DeepEqual(reimported.AnalyzedCountries(3, nil), merged.AnalyzedCountries(3, nil)) {
		t.Error("analyzed country sets differ between merged and unsharded datasets")
	}

	// The merged sketch is the exact integer merge of the shard
	// sketches: same totals and quantiles as the unsharded run's.
	for _, key := range reimported.Sketch.Keys() {
		w, g := reimported.Sketch.Get(key), merged.Sketch.Get(key)
		if g == nil {
			t.Errorf("merged sketch missing %s", key)
			continue
		}
		if w.Count() != g.Count() || w.Sum() != g.Sum() || w.Quantile(0.5) != g.Quantile(0.5) {
			t.Errorf("sketch %s differs after merge: count %d/%d sum %d/%d",
				key, w.Count(), g.Count(), w.Sum(), g.Sum())
		}
	}
}

func TestMergeValidation(t *testing.T) {
	mk := func() *Dataset {
		return &Dataset{
			Clients: []ClientRecord{
				{ClientID: "c1", CountryCode: "BR", Do53Valid: true, Do53Ms: 10},
			},
			AtlasDo53Ms: map[string]float64{"US": 20},
			KeptClients: 1,
			Seed:        7,
		}
	}
	if _, err := Merge(); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := Merge(mk(), nil); err == nil {
		t.Error("nil part accepted")
	}
	if _, err := Merge(mk(), mk()); err == nil {
		t.Error("duplicate client accepted")
	}
	other := mk()
	other.Clients[0].ClientID = "c2"
	if _, err := Merge(mk(), other); err == nil {
		t.Error("country split across parts accepted")
	}
	reseeded := mk()
	reseeded.Clients[0].ClientID = "c2"
	reseeded.Clients[0].CountryCode = "US"
	reseeded.Seed = 8
	if _, err := Merge(mk(), reseeded); err == nil {
		t.Error("seed mismatch accepted")
	}
	badAtlas := mk()
	badAtlas.Clients[0].ClientID = "c2"
	badAtlas.Clients[0].CountryCode = "US"
	badAtlas.AtlasDo53Ms["US"] = 21
	if _, err := Merge(mk(), badAtlas); err == nil {
		t.Error("Atlas disagreement accepted")
	}

	ok := mk()
	ok.Clients[0].ClientID = "c2"
	ok.Clients[0].CountryCode = "US"
	merged, err := Merge(mk(), ok)
	if err != nil {
		t.Fatalf("valid merge rejected: %v", err)
	}
	if len(merged.Clients) != 2 || merged.KeptClients != 2 {
		t.Errorf("merged accounting wrong: %d clients, KeptClients %d", len(merged.Clients), merged.KeptClients)
	}
	if merged.Clients[0].CountryCode != "BR" || merged.Clients[1].CountryCode != "US" {
		t.Errorf("merged clients not in canonical country order: %+v", merged.Clients)
	}
}

// TestClaimProtocolPartitionsCountries races two campaigns over the
// SAME country list against one shared journal directory. The claim
// protocol must partition the work exactly: every country measured by
// exactly one run (no double-measure, no gap), and the merged result
// byte-identical to a plain single-process run. Runs under -race in
// the verify gate.
func TestClaimProtocolPartitionsCountries(t *testing.T) {
	countries := []string{"BR", "US", "IT", "NG", "AR", "MX"}
	cfg := smallConfig(countries...)
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := exportAll(t, ref)

	dir := t.TempDir()
	var mu sync.Mutex
	measured := map[string][]string{}
	owners := []string{"shard-a", "shard-b"}
	results := make(map[string]*Dataset)
	errs := make(map[string]error)
	var wg sync.WaitGroup
	for _, owner := range owners {
		wg.Add(1)
		go func(owner string) {
			defer wg.Done()
			c := cfg
			c.CheckpointDir = dir
			c.ClaimOwner = owner
			c.Parallel = 2
			c.OnCountryDone = func(code string, clients int, resumed bool) {
				mu.Lock()
				measured[owner] = append(measured[owner], code)
				mu.Unlock()
			}
			ds, err := Run(c)
			mu.Lock()
			results[owner] = ds
			errs[owner] = err
			mu.Unlock()
		}(owner)
	}
	wg.Wait()
	for _, owner := range owners {
		if errs[owner] != nil {
			t.Fatalf("%s: %v", owner, errs[owner])
		}
	}

	// Exact partition: disjoint and covering.
	byCountry := map[string]string{}
	for _, owner := range owners {
		for _, code := range measured[owner] {
			if prev, dup := byCountry[code]; dup {
				t.Errorf("country %s measured by both %s and %s", code, prev, owner)
			}
			byCountry[code] = owner
		}
	}
	if len(byCountry) != len(countries) {
		t.Errorf("claims covered %d of %d countries: %v", len(byCountry), len(countries), byCountry)
	}

	merged, err := Merge(results[owners[0]], results[owners[1]])
	if err != nil {
		t.Fatal(err)
	}
	if got := exportAll(t, merged); !bytes.Equal(got, want) {
		t.Error("claim-partitioned merge differs from single-process run")
	}
}

// TestClaimResumeAfterCompletion re-runs a claiming shard against its
// finished journal: claims survive completion, so the rerun restores
// its own countries from the journal and still refuses the sibling's.
func TestClaimResumeAfterCompletion(t *testing.T) {
	countries := []string{"BR", "IT", "NG", "AR"}
	dir := t.TempDir()
	run := func(owner string, record *[]string) (*Dataset, error) {
		c := smallConfig(countries...)
		c.CheckpointDir = dir
		c.ClaimOwner = owner
		c.OnCountryDone = func(code string, clients int, resumed bool) {
			if record != nil {
				*record = append(*record, code)
			}
		}
		return Run(c)
	}
	var first []string
	dsA, err := run("shard-a", &first)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(countries) {
		t.Fatalf("uncontested shard measured %d of %d countries", len(first), len(countries))
	}

	// A different owner joining afterwards gets nothing: every country
	// already belongs to shard-a's dataset.
	var stolen []string
	dsB, err := run("shard-b", &stolen)
	if err != nil {
		t.Fatal(err)
	}
	if len(stolen) != 0 || len(dsB.Clients) != 0 {
		t.Errorf("completed claims were re-assigned: measured %v, %d clients", stolen, len(dsB.Clients))
	}

	// The original owner re-running restores everything from the journal.
	var rerun []string
	dsA2, err := run("shard-a", &rerun)
	if err != nil {
		t.Fatal(err)
	}
	if len(rerun) != len(countries) {
		t.Errorf("owner rerun recovered %d of %d countries", len(rerun), len(countries))
	}
	if !bytes.Equal(exportAll(t, dsA), exportAll(t, dsA2)) {
		t.Error("owner rerun differs from original run")
	}
}

func TestClaimOwnerRequiresCheckpointDir(t *testing.T) {
	cfg := smallConfig("BR")
	cfg.ClaimOwner = "shard-1-of-2"
	if _, err := Run(cfg); err == nil {
		t.Fatal("ClaimOwner without CheckpointDir accepted")
	}
}

// TestDiscardClientsKeepsAggregates pins the constant-memory mode:
// with DiscardClients set, per-client records are dropped after
// sketching but every aggregate — accounting, sketch, observability
// snapshot — is identical to the retaining run's.
func TestDiscardClientsKeepsAggregates(t *testing.T) {
	cfg := smallConfig("BR", "IT", "NG")
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lean := cfg
	lean.DiscardClients = true
	ds, err := Run(lean)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Clients) != 0 {
		t.Errorf("DiscardClients retained %d client records", len(ds.Clients))
	}
	if ds.KeptClients != len(full.Clients) {
		t.Errorf("KeptClients = %d, want %d", ds.KeptClients, len(full.Clients))
	}
	if !reflect.DeepEqual(ds.Obs, full.Obs) {
		t.Error("observability snapshot differs between discard and retain runs")
	}
	for kind, ts := range full.Transports {
		if ds.Transports[kind] != ts {
			t.Errorf("%s accounting differs between discard and retain runs", kind)
		}
	}
	for _, key := range full.Sketch.Keys() {
		w, g := full.Sketch.Get(key), ds.Sketch.Get(key)
		if g == nil || w.Count() != g.Count() || w.Sum() != g.Sum() {
			t.Errorf("sketch %s differs in discard mode", key)
		}
	}
}

// TestDiscardClientsMemoryFlat holds the constant-memory mode's claim:
// with DiscardClients set, what a campaign's dataset keeps grows with
// the countries it measured, not with their clients. It runs the 1/16
// and the 4/16 stripe of the world (14 countries and 1,546 clients, 56
// and 5,217) in both modes and reads the heap the dataset keeps:
// HeapAlloc after runtime.GC() with the dataset still referenced, less
// the same reading before Run. The process's resident high-water mark
// is no gate: it moves 1.03–1.22x between repeated runs of one build.
//
// Measured (go1.24, linux/amd64, 2 vCPUs), ranges over 10 runs: discard
// mode keeps 39.7–40.5 KB and 104.9–106.3 KB, 1,542–1,585 B per added
// country (its per-country aggregates; 17.6–18.1 B per added client);
// retain mode keeps 1,375–1,377 KB and 4,614–4,620 KB, 882–884 B per
// added client. The bounds are those with 2x headroom: at most 3,100 B
// per added country discarding, at least 441 B per added client
// retaining.
func TestDiscardClientsMemoryFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	const maxDiscardPerCountry, minRetainPerClient = 3100, 441
	type reading struct{ countries, clients, bytes int }
	heap := func() int {
		runtime.GC()
		runtime.GC() // the first leaves sync.Pool's victim cache behind
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int(ms.HeapAlloc)
	}
	measure := func(stripes int, discard bool) reading {
		countries, err := ShardCountries(nil, 0, 16/stripes)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(1234)
		cfg.Countries = countries
		cfg.DiscardClients = discard
		cfg.Parallel = 4
		before := heap()
		ds, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		kept := heap() - before
		runtime.KeepAlive(ds)
		return reading{len(countries), ds.KeptClients, kept}
	}
	measure(1, true) // page in the world tables and the shared provider catalogue
	for _, discard := range []bool{true, false} {
		one, four := measure(1, discard), measure(4, discard)
		perCountry := float64(four.bytes-one.bytes) / float64(four.countries-one.countries)
		perClient := float64(four.bytes-one.bytes) / float64(four.clients-one.clients)
		t.Logf("discard=%v: %d B kept at %d countries, %d B at %d: %.0f B per added country, %.1f B per added client",
			discard, one.bytes, one.countries, four.bytes, four.countries, perCountry, perClient)
		if discard && perCountry > maxDiscardPerCountry {
			t.Errorf("discard mode keeps %.0f B per added country, want <= %d", perCountry, maxDiscardPerCountry)
		}
		if !discard && perClient < minRetainPerClient {
			t.Errorf("retain mode keeps %.1f B per added client, want >= %d: the reading no longer sees the records",
				perClient, minRetainPerClient)
		}
	}
}

// Merge returns records of its own: writing to a merged record's
// per-provider tables reaches no part it was merged from.
func TestMergeOwnsItsRecords(t *testing.T) {
	a, err := Run(fiveTransportConfig("LU"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fiveTransportConfig("MT"))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]ClientRecord(nil), a.Clients...)
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range merged.Clients {
		c := &merged.Clients[i]
		c.DoH.Set(anycast.Cloudflare, DoHResult{TDoHMs: -1})
		c.Sessions[proxynet.DoT].Set(anycast.Google, SessionResult{FirstMs: -1})
		c.Smart.Set(anycast.Quad9, SmartResult{Winner: "merged"})
	}
	for i := range a.Clients {
		if a.Clients[i] != want[i] {
			t.Fatalf("writing to the merged dataset changed part client %d:\n got %+v\nwant %+v", i, a.Clients[i], want[i])
		}
	}
}

// Merge sums the shards' accounting to the unsharded run's: every
// Accounting field, the kept-client count and every gauge but the
// per-run simulator ones. The parts stay in memory, because a CSV
// release carries no accounting.
func TestMergeSumsAccountingLikeUnsharded(t *testing.T) {
	countries := []string{"BR", "US", "IT", "NG", "AR", "MX", "ID", "DE", "TH"}
	cfg := fiveTransportConfig(countries...)
	cfg.Chaos = soakChaos
	cfg.Breaker = &resolver.BreakerPolicy{FailureThreshold: 4, ProbeEvery: 6}
	unsharded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := unsharded.Accounting
	if a.DiscardedMismatch == 0 || a.DiscardedImplausible == 0 || len(a.Transports) == 0 ||
		len(a.Breakers) == 0 || len(a.SmartWins) == 0 {
		t.Fatalf("an accounting field is zero, so the merge could drop it unseen: %+v", a)
	}

	const shards = 3
	parts := make([]*Dataset, shards)
	for i := range parts {
		scfg := cfg
		if scfg.Countries, err = ShardCountries(countries, i, shards); err != nil {
			t.Fatal(err)
		}
		if parts[i], err = Run(scfg); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Accounting, unsharded.Accounting) {
		t.Errorf("merged accounting differs from the unsharded run's:\n got %+v\nwant %+v", merged.Accounting, unsharded.Accounting)
	}
	if merged.KeptClients != unsharded.KeptClients {
		t.Errorf("merged KeptClients = %d, the unsharded run's %d", merged.KeptClients, unsharded.KeptClients)
	}
	gauges := func(ds *Dataset) map[string]float64 {
		m := make(map[string]float64)
		for _, g := range ds.Obs.Gauges {
			if !strings.HasPrefix(g.Name, "campaign_sim_") {
				m[g.Name] = g.Value
			}
		}
		return m
	}
	if got, want := gauges(merged), gauges(unsharded); !reflect.DeepEqual(got, want) {
		t.Errorf("merged gauges differ from the unsharded run's:\n got %v\nwant %v", got, want)
	}
}

// A country that fails gives its claim back on every failure path, so a
// sibling shard measures it instead of skipping it as another's.
func TestFailedCountryReleasesItsClaim(t *testing.T) {
	cfg := smallConfig("LU")
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Clients) == 0 {
		t.Fatal("LU kept no clients")
	}
	for _, row := range []struct {
		name, wantErr string
		// spoil leaves the LU record the failing run finds in dir.
		spoil func(dir string) error
	}{
		{"corrupt record", "corrupt", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "LU.json"), []byte("{"), 0o644)
		}},
		{"more clients than provisioned", "provisions", func(dir string) error {
			c := cfg
			c.CheckpointDir = dir
			if _, err := Run(c); err != nil {
				return err
			}
			journal, err := checkpoint.Open(dir, configKey(cfg, anycast.ProviderIDs()))
			if err != nil {
				return err
			}
			var rec countryRecord
			if ok, err := journal.Get("LU", &rec); !ok || err != nil {
				return fmt.Errorf("LU's journal record: found %v, %v", ok, err)
			}
			ct, _ := world.ByCode("LU")
			for len(rec.Clients) <= clientsIn(cfg, ct) {
				rec.Clients = append(rec.Clients, rec.Clients[0])
			}
			return journal.Put("LU", rec)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := row.spoil(dir); err != nil {
				t.Fatal(err)
			}
			run := func(owner string) (*Dataset, error) {
				c := cfg
				c.CheckpointDir = dir
				c.ClaimOwner = owner
				return Run(c)
			}
			if _, err := run("shard-a"); err == nil || !strings.Contains(err.Error(), row.wantErr) {
				t.Fatalf("shard-a's run: err = %v, want one saying %q", err, row.wantErr)
			}
			if err := os.Remove(filepath.Join(dir, "LU.json")); err != nil {
				t.Fatal(err)
			}
			ds, err := run("shard-b")
			if err != nil {
				t.Fatal(err)
			}
			if len(ds.Clients) != len(fresh.Clients) {
				t.Errorf("shard-b kept %d clients of LU, a fresh run %d: the failed claim was not released", len(ds.Clients), len(fresh.Clients))
			}
		})
	}
}
