package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/anycast"
	"repro/internal/checkpoint"
	"repro/internal/proxynet"
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
	// The analysis/histogram comparisons below go against the reimported
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

	// The merged histograms are the fold of the merged records: the
	// same as the reimported unsharded run's.
	whole, err := Merge(reimported)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Obs.Histograms, whole.Obs.Histograms) {
		t.Error("merged histograms differ from the unsharded run's")
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

	// Two real runs whose country lists overlap, as from shard specs
	// that overlap: the merge names what they share.
	left, err := Run(smallConfig("BR", "LU"))
	if err != nil {
		t.Fatal(err)
	}
	right, err := Run(smallConfig("LU", "MT"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(left, right); err == nil ||
		!strings.Contains(err.Error(), "country LU") && !strings.Contains(err.Error(), "client "+right.Clients[0].ClientID) {
		t.Errorf("overlapping runs merged: err = %v, want one naming LU or its first client", err)
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

// TestShardsShareOneJournal runs the two halves of a campaign at once
// on one checkpoint directory: disjoint shards never touch each
// other's records, so their merge is the unsharded export byte for
// byte. A rerun of each shard restores every one of its countries from
// the journal and exports the same bytes, and a file in the directory
// that is no record (a stray LU.claim) changes nothing. Runs under
// -race in the verify gate.
func TestShardsShareOneJournal(t *testing.T) {
	countries := []string{"BR", "US", "IT", "NG", "AR", "LU"}
	cfg := smallConfig(countries...)
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := exportAll(t, ref)

	dir := t.TempDir()
	stale := []byte(`{"key":"0000000000000000","name":"LU","owner":"shard-9-of-9"}`)
	if err := os.WriteFile(filepath.Join(dir, "LU.claim"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	const shards = 2
	run := func(i int, restored *[]string) (*Dataset, error) {
		c := cfg
		var err error
		if c.Countries, err = ShardCountries(countries, i, shards); err != nil {
			return nil, err
		}
		c.CheckpointDir = dir
		c.Parallel = 2
		c.OnCountryDone = func(code string, clients int, resumed bool) {
			if resumed {
				*restored = append(*restored, code)
			}
		}
		return RunContext(context.Background(), c)
	}

	parts := make([]*Dataset, shards)
	restored := make([][]string, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = run(i, &restored[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(restored[i]) != 0 {
			t.Errorf("shard %d restored %v from a journal nobody had written", i, restored[i])
		}
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := exportAll(t, merged); !bytes.Equal(got, want) {
		t.Error("shards sharing a journal merge to a different export than the unsharded run")
	}

	for i, part := range parts {
		var again []string
		ds, err := run(i, &again)
		if err != nil {
			t.Fatalf("shard %d rerun: %v", i, err)
		}
		mine, _ := ShardCountries(countries, i, shards)
		sort.Strings(again)
		if !reflect.DeepEqual(again, mine) {
			t.Errorf("shard %d rerun restored %v from the journal, want %v", i, again, mine)
		}
		if !bytes.Equal(exportAll(t, ds), exportAll(t, part)) {
			t.Errorf("shard %d rerun exports different bytes than its first run", i)
		}
	}
	if got, err := os.ReadFile(filepath.Join(dir, "LU.claim")); err != nil || !bytes.Equal(got, stale) {
		t.Errorf("the stale claim file was touched: %q, %v", got, err)
	}
}

// TestClaimProtocolPartitionsCountries races two campaigns over the
// SAME country list against one shared journal directory. No claim
// protocol splits that work any more: countries are partitioned only
// by ShardCountries (TestShardsShareOneJournal). Each run measures or
// restores the whole list, so each exports the single-process bytes,
// whichever run wrote a record first; and Merge refuses the two as
// overlapping parts instead of taking the overlap silently. Runs under
// -race in the verify gate.
func TestClaimProtocolPartitionsCountries(t *testing.T) {
	countries := []string{"BR", "US", "IT", "NG", "AR", "MX"}
	cfg := smallConfig(countries...)
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := exportAll(t, ref)

	dir := t.TempDir()
	parts := make([]*Dataset, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.CheckpointDir = dir
			c.Parallel = 2
			parts[i], errs[i] = RunContext(context.Background(), c)
		}()
	}
	wg.Wait()
	for i, part := range parts {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got := exportAll(t, part); !bytes.Equal(got, want) {
			t.Errorf("run %d on a shared journal differs from the single-process run", i)
		}
	}
	if _, err := Merge(parts...); err == nil || !strings.Contains(err.Error(), "more than one merge part") {
		t.Errorf("overlapping runs merged: err = %v, want a client in more than one merge part", err)
	}
}

// TestClaimResumeAfterCompletion re-runs a shard against its finished
// journal. The sibling shard, run afterwards on the same directory,
// restores none of its countries (the first shard's records are not
// its own), and the first shard's rerun restores every one of its
// countries from the journal and exports the same bytes.
func TestClaimResumeAfterCompletion(t *testing.T) {
	countries := []string{"BR", "IT", "NG", "AR"}
	dir := t.TempDir()
	run := func(i int, restored *[]string) (*Dataset, error) {
		c := smallConfig(countries...)
		var err error
		if c.Countries, err = ShardCountries(countries, i, 2); err != nil {
			return nil, err
		}
		c.CheckpointDir = dir
		c.OnCountryDone = func(code string, clients int, resumed bool) {
			if resumed {
				*restored = append(*restored, code)
			}
		}
		return Run(c)
	}
	var first []string
	dsA, err := run(0, &first)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 0 {
		t.Fatalf("first run restored %v from an empty journal", first)
	}

	var sibling []string
	if _, err := run(1, &sibling); err != nil {
		t.Fatal(err)
	}
	if len(sibling) != 0 {
		t.Errorf("sibling shard restored %v from the first shard's journal", sibling)
	}

	var rerun []string
	dsA2, err := run(0, &rerun)
	if err != nil {
		t.Fatal(err)
	}
	mine, _ := ShardCountries(countries, 0, 2)
	sort.Strings(rerun)
	if !reflect.DeepEqual(rerun, mine) {
		t.Errorf("rerun restored %v from the journal, want %v", rerun, mine)
	}
	if !bytes.Equal(exportAll(t, dsA), exportAll(t, dsA2)) {
		t.Error("rerun differs from the original run")
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
	unsharded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := unsharded.Accounting
	if a.DiscardedMismatch == 0 || a.DiscardedImplausible == 0 || len(a.Transports) == 0 || len(a.SmartWins) == 0 {
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

// A country whose journal record is spoiled fails the run with the
// reason, instead of restoring a record that is not the country's.
func TestSpoiledJournalRecordFailsTheRun(t *testing.T) {
	cfg := smallConfig("LU")
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
			journal, err := checkpoint.Open(dir, configKey(cfg))
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
			c := cfg
			c.CheckpointDir = dir
			if _, err := Run(c); err == nil || !strings.Contains(err.Error(), row.wantErr) {
				t.Fatalf("run over a spoiled record: err = %v, want one saying %q", err, row.wantErr)
			}
		})
	}
}
