package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/resolver"
)

// TestJournalHashPinned pins every byte the checkpoint journal holds for
// the benchmark's stripe (14 countries, seed 2021, all five strategies):
// the envelope, the config key and each country's records and
// accounting, in country order. A journal written by one build must
// restore in the next, so the record's JSON shape may not move with its
// in-memory layout. The hash was recorded while the per-provider results
// were maps.
func TestJournalHashPinned(t *testing.T) {
	const want = "5872ec7de0f0ca67482bbb8d92522800c953583df10612d2df2947c49c3f305b"
	cfg := stripeConfig(t)
	cfg.CheckpointDir = t.TempDir()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, code := range cfg.Countries {
		data, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, code+".json"))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("journal hashes to %s, want %s", got, want)
	}
}

// mapShapedJournal holds two journal records for Luxembourg written while
// the per-provider results were maps: one from a Do53-only campaign,
// where DoH encoded as {} and the tables never measured as null, and one
// from a DoH, DoT and smart campaign, where the tables are objects keyed
// by provider beside DoQ's null.
var mapShapedJournal = map[string][]resolver.Kind{
	`{"key":"29d26a860e846fcc","name":"LU","data":{"clients":[{"ClientID":"exit-LU-000001","CountryCode":"LU","Prefix":"10.121.0.0/24","Pos":{"Lat":48.911641081428634,"Lon":7.44236760006717},"DoH":{},"Sessions":[null,null],"Smart":null,"Do53Ms":152.7500785,"Do53Valid":true,"NSDistanceKm":6524.927065619569}],"mismatch":0,"implausible":0,"transports":{"do53":{"Queries":2,"Successes":2,"Discards":0,"LossEvents":0,"Blocked":0,"Skipped":0}},"sim_stats":{"LossEvents":0,"DoTBlocked":0,"DoQBlocked":0,"ExitNodes":1,"DoHMeasurements":0,"Do53Measurements":2,"DoTMeasurements":0,"DoQMeasurements":0,"ChaosResets":0,"ChaosChurns":0,"ChaosHeaderCorruptions":0}}}`: {resolver.Do53},
	`{"key":"bfc42d725aff9974","name":"LU","data":{"clients":[{"ClientID":"exit-LU-000001","CountryCode":"LU","Prefix":"10.121.0.0/24","Pos":{"Lat":48.911641081428634,"Lon":7.44236760006717},"DoH":{"cloudflare":{"TDoHMs":244.924521,"TDoHRMs":147.335078,"PoPID":"cloudflare-CH-25","PoPCountry":"CH","PoPDistanceKm":141.60698095735953,"NearestPoPDistanceKm":71.25609709291024,"Valid":true},"google":{"TDoHMs":308.976,"TDoHRMs":198.6281615,"PoPID":"google-DE-6","PoPCountry":"DE","PoPDistanceKm":239.34492496215358,"NearestPoPDistanceKm":239.34492496215358,"Valid":true},"nextdns":{"TDoHMs":376.59963700000003,"TDoHRMs":173.09614549999998,"PoPID":"nextdns-LU-49","PoPCountry":"LU","PoPDistanceKm":15.383440347665951,"NearestPoPDistanceKm":15.383440347665951,"Valid":true},"quad9":{"TDoHMs":292.260419,"TDoHRMs":178.925888,"PoPID":"quad9-AT-42","PoPCountry":"AT","PoPDistanceKm":531.7788866988951,"NearestPoPDistanceKm":176.73328094832038,"Valid":true}},"Sessions":[{"cloudflare":{"FirstMs":259.00262799999996,"ReusedMs":169.1074135,"BlockedRuns":0,"Blocked":false,"Valid":true},"google":{"FirstMs":262.221386,"ReusedMs":164.30406299999999,"BlockedRuns":0,"Blocked":false,"Valid":true},"nextdns":{"FirstMs":267.187956,"ReusedMs":190.7529545,"BlockedRuns":0,"Blocked":false,"Valid":true},"quad9":{"FirstMs":324.806373,"ReusedMs":208.881981,"BlockedRuns":0,"Blocked":false,"Valid":true}},null],"Smart":{"cloudflare":{"TSmartMs":244.924521,"TSmartRMs":147.335078,"Winner":"doh","Valid":true},"google":{"TSmartMs":308.976,"TSmartRMs":198.6281615,"Winner":"doh","Valid":true},"nextdns":{"TSmartMs":317.187956,"TSmartRMs":190.7529545,"Winner":"dot","Valid":true},"quad9":{"TSmartMs":292.260419,"TSmartRMs":178.925888,"Winner":"doh","Valid":true}},"Do53Ms":0,"Do53Valid":false,"NSDistanceKm":6524.927065619569}],"mismatch":0,"implausible":0,"transports":{"doh":{"Queries":8,"Successes":8,"Discards":0,"LossEvents":0,"Blocked":0,"Skipped":0},"dot":{"Queries":8,"Successes":8,"Discards":0,"LossEvents":0,"Blocked":0,"Skipped":0}},"smart_wins":{"doh":3,"dot":1},"sim_stats":{"LossEvents":0,"DoTBlocked":0,"DoQBlocked":0,"ExitNodes":1,"DoHMeasurements":8,"Do53Measurements":0,"DoTMeasurements":8,"DoQMeasurements":0,"ChaosResets":0,"ChaosChurns":0,"ChaosHeaderCorruptions":0}}}`: {resolver.DoH, resolver.DoT, resolver.Smart},
}

// A journal record in the map-based shape restores to the records a
// fresh run measures.
func TestJournalRestoresMapShapedRecord(t *testing.T) {
	for record, transports := range mapShapedJournal {
		cfg := smallConfig("LU")
		cfg.ClientScale = 0.05
		cfg.Transports = transports
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		cfg.CheckpointDir = t.TempDir()
		if err := os.WriteFile(filepath.Join(cfg.CheckpointDir, "LU.json"), []byte(record), 0o644); err != nil {
			t.Fatal(err)
		}
		restored := false
		cfg.OnCountryDone = func(_ string, _ int, fromJournal bool) { restored = fromJournal }
		ds, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !restored {
			t.Fatalf("%v: the record was not restored (a config key moved?)", transports)
		}
		if len(ds.Clients) != len(fresh.Clients) || len(ds.Clients) == 0 {
			t.Fatalf("%v: restored %d clients, a fresh run measures %d", transports, len(ds.Clients), len(fresh.Clients))
		}
		for i := range ds.Clients {
			if ds.Clients[i] != fresh.Clients[i] {
				t.Errorf("%v: restored client %d\n got %+v\nwant %+v", transports, i, ds.Clients[i], fresh.Clients[i])
			}
		}
	}
}
