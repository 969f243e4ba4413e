package analysis

import (
	"reflect"
	"testing"

	"repro/internal/anycast"
	"repro/internal/campaign"
)

// TestShardedAnalysisIdentical closes the scale-out loop at the
// analysis layer: the tables computed over a sharded campaign,
// recombined through its journal, must equal the tables over the
// unsharded run — not just the CSV bytes (pinned in internal/campaign),
// but every derived figure a paper section reads.
func TestShardedAnalysisIdentical(t *testing.T) {
	countries := []string{"BR", "US", "IT", "NG", "AR", "MX", "ID", "DE", "TH", "TR", "PL", "ZA"}
	cfg := campaign.DefaultConfig(1234)
	cfg.Countries = countries
	cfg.ClientScale = 0.2

	unsharded, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Three shards on one journal, then a run of the whole campaign over
	// it, which restores every country.
	dir := t.TempDir()
	const shards = 3
	for i := 0; i < shards; i++ {
		scfg := cfg
		var err error
		if scfg.Countries, err = campaign.ShardCountries(countries, i, shards); err != nil {
			t.Fatal(err)
		}
		scfg.CheckpointDir = dir
		if _, err := campaign.Run(scfg); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	cfg.CheckpointDir = dir
	measured := 0
	cfg.OnCountryDone = func(code string, clients int, resumed bool) {
		if !resumed {
			measured++
		}
	}
	recombined, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if measured != 0 {
		t.Fatalf("the recombining run measured %d countries its shards had journaled", measured)
	}

	const minClients = 3
	want := New(unsharded, minClients)
	got := New(recombined, minClients)

	if !reflect.DeepEqual(want.AnalyzedCountryCodes(), got.AnalyzedCountryCodes()) {
		t.Errorf("analyzed countries differ: %v vs %v",
			want.AnalyzedCountryCodes(), got.AnalyzedCountryCodes())
	}
	if wr, gr := want.Rows(), got.Rows(); !reflect.DeepEqual(wr, gr) {
		t.Errorf("analysis rows differ: %d vs %d rows", len(wr), len(gr))
	}
	if !reflect.DeepEqual(want.CountryMedianDoH1(), got.CountryMedianDoH1()) {
		t.Error("per-country DoH medians differ")
	}
	if !reflect.DeepEqual(want.ObservedPoPs(), got.ObservedPoPs()) {
		t.Error("PoP census differs")
	}
	if !reflect.DeepEqual(want.CountryDelta(1), got.CountryDelta(1)) {
		t.Error("country delta table differs")
	}
	if want.SpeedupShare(1) != got.SpeedupShare(1) {
		t.Errorf("speedup share differs: %v vs %v", want.SpeedupShare(1), got.SpeedupShare(1))
	}
	wm, werr := want.GlobalMedianMultiplier(1)
	gm, gerr := got.GlobalMedianMultiplier(1)
	if werr != nil || gerr != nil || wm != gm {
		t.Errorf("global median multiplier differs: %v (%v) vs %v (%v)", wm, werr, gm, gerr)
	}
	for _, pid := range anycast.ProviderIDs() {
		if !reflect.DeepEqual(want.RegionMedians(pid), got.RegionMedians(pid)) {
			t.Errorf("%s region medians differ", pid)
		}
	}
}
