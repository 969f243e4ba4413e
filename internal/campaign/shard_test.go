package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
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

// recombine runs cfg's countries as shards, each journaling its slice:
// all into one directory, or, when separate, each into a directory of
// its own whose records are then copied into one, as from shards on
// different machines. It returns the recombining run over that
// directory.
func recombine(t *testing.T, cfg Config, shards int, separate bool) *Dataset {
	t.Helper()
	dir := t.TempDir()
	for i := range shards {
		c := cfg
		var err error
		if c.Countries, err = ShardCountries(cfg.Countries, i, shards); err != nil {
			t.Fatal(err)
		}
		if len(c.Countries) == 0 {
			continue // no countries would mean the whole world
		}
		c.CheckpointDir = dir
		if separate {
			c.CheckpointDir = t.TempDir()
		}
		if _, err := Run(c); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if separate {
			records, err := filepath.Glob(filepath.Join(c.CheckpointDir, "*.json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range records {
				data, err := os.ReadFile(rec)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(rec)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return recombined(t, cfg, dir)
}

// recombined runs cfg over the journal in dir, which must restore every
// one of cfg's countries and measure none.
func recombined(t *testing.T, cfg Config, dir string) *Dataset {
	t.Helper()
	var restored []string
	cfg.CheckpointDir = dir
	cfg.OnCountryDone = func(code string, clients int, resumed bool) {
		if resumed {
			restored = append(restored, code)
		}
	}
	ds, err := Run(cfg)
	if err != nil {
		t.Fatalf("recombining run: %v", err)
	}
	want := slices.Clone(cfg.Countries)
	slices.Sort(want)
	slices.Sort(restored)
	if !slices.Equal(restored, want) {
		t.Errorf("recombining run restored %v from the journal, want every country %v", restored, want)
	}
	return ds
}

// sameDataset fails t unless got equals want in its records, its
// accounting, its Atlas medians, its whole observability snapshot
// (simulator gauges included) and its export bytes.
func sameDataset(t *testing.T, got, want *Dataset) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Clients", got.Clients, want.Clients},
		{"Accounting", got.Accounting, want.Accounting},
		{"SmartWins", got.SmartWins, want.SmartWins},
		{"AtlasDo53Ms", got.AtlasDo53Ms, want.AtlasDo53Ms},
		{"Obs", got.Obs, want.Obs},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("recombined %s differ from the unsharded run's", f.name)
		}
	}
	if !bytes.Equal(exportAll(t, got), exportAll(t, want)) {
		t.Error("recombined export differs from the unsharded run's")
	}
}

// TestShardMergeByteIdenticalCSV is the heart of the scale-out
// contract: run the same campaign unsharded and as three shards on one
// journal, then recombine them with a run over that journal, which must
// be the unsharded run in every record, count and byte it exports.
func TestShardMergeByteIdenticalCSV(t *testing.T) {
	cfg := smallConfig("BR", "US", "IT", "NG", "AR", "MX", "ID", "DE", "TH")
	unsharded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameDataset(t, recombine(t, cfg, 3, false), unsharded)
}

// TestShardsShareOneJournal runs the two halves of a campaign at once
// on one checkpoint directory: disjoint shards never touch each
// other's records, so a run over the directory recombines them into
// the unsharded export byte for byte. A rerun of each shard restores every one of its countries from
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
	if got := exportAll(t, recombined(t, cfg, dir)); !bytes.Equal(got, want) {
		t.Error("shards sharing a journal recombine to a different export than the unsharded run")
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
// whichever run wrote a record first; and a country both measured holds
// one record, so a run over the directory restores every country and
// exports those bytes too. Runs under -race in the verify gate.
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
	if got := exportAll(t, recombined(t, cfg, dir)); !bytes.Equal(got, want) {
		t.Error("a run over the overlapping runs' journal differs from the single-process run")
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

// TestMergeSumsAccountingLikeUnsharded recombines three shards of a
// five-transport chaos campaign, on one journal and on journals of
// their own copied into one directory: either way the recombining run
// is the unsharded run in every accounting field, smart win and gauge,
// the chaos gauges included, since each record journals its
// simulator's injected-failure counts.
func TestMergeSumsAccountingLikeUnsharded(t *testing.T) {
	cfg := fiveTransportConfig("BR", "US", "IT", "NG", "AR", "MX", "ID", "DE", "TH")
	cfg.Chaos = soakChaos
	unsharded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := unsharded.Accounting
	if a.DiscardedMismatch == 0 || a.DiscardedImplausible == 0 || len(a.Transports) == 0 || len(unsharded.SmartWins) == 0 {
		t.Fatalf("a count is zero, so the recombination could drop it unseen: %+v, wins %v", a, unsharded.SmartWins)
	}
	for _, separate := range []bool{false, true} {
		sameDataset(t, recombine(t, cfg, 3, separate), unsharded)
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
