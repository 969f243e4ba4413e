package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/proxynet"
	"repro/internal/resolver"
)

// TestJournalHashPinned pins every byte the checkpoint journal holds for
// the benchmark's stripe (14 countries, seed 2021, all five strategies):
// the envelope, the config key and each country's records and
// accounting, in country order. A journal written by one build must
// restore in the next, so the record's JSON shape may not move with its
// in-memory layout; TestJournalRestoresMapShapedRecord restores records
// that older builds wrote.
func TestJournalHashPinned(t *testing.T) {
	const want = "69547720ce24b05d22881da2383ec8e6fa544fe7f44aa0ffb73d5389a2af92d8"
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

// mapShapedJournal holds journal records for Luxembourg written by
// earlier builds. The first two were written while the per-provider
// results were maps: one from a Do53-only campaign, where DoH encoded
// as {} and the tables never measured as null, and one from a DoH, DoT
// and smart campaign, where the tables are objects keyed by provider
// beside DoQ's null. The third is a five-transport soakChaos record
// from the build whose records still carried smart_wins and an 11-key
// sim_stats, with every chaos mode fired.
var mapShapedJournal = []struct {
	record     string
	transports []resolver.Kind
	chaos      proxynet.Chaos
}{
	{`{"key":"29d26a860e846fcc","name":"LU","data":{"clients":[{"ClientID":"exit-LU-000001","CountryCode":"LU","Prefix":"10.121.0.0/24","Pos":{"Lat":48.911641081428634,"Lon":7.44236760006717},"DoH":{},"Sessions":[null,null],"Smart":null,"Do53Ms":152.7500785,"Do53Valid":true,"NSDistanceKm":6524.927065619569}],"mismatch":0,"implausible":0,"transports":{"do53":{"Queries":2,"Successes":2,"Discards":0,"LossEvents":0,"Blocked":0,"Skipped":0}},"sim_stats":{"LossEvents":0,"DoTBlocked":0,"DoQBlocked":0,"ExitNodes":1,"DoHMeasurements":0,"Do53Measurements":2,"DoTMeasurements":0,"DoQMeasurements":0,"ChaosResets":0,"ChaosChurns":0,"ChaosHeaderCorruptions":0}}}`, []resolver.Kind{resolver.Do53}, proxynet.Chaos{}},
	{`{"key":"bfc42d725aff9974","name":"LU","data":{"clients":[{"ClientID":"exit-LU-000001","CountryCode":"LU","Prefix":"10.121.0.0/24","Pos":{"Lat":48.911641081428634,"Lon":7.44236760006717},"DoH":{"cloudflare":{"TDoHMs":244.924521,"TDoHRMs":147.335078,"PoPID":"cloudflare-CH-25","PoPCountry":"CH","PoPDistanceKm":141.60698095735953,"NearestPoPDistanceKm":71.25609709291024,"Valid":true},"google":{"TDoHMs":308.976,"TDoHRMs":198.6281615,"PoPID":"google-DE-6","PoPCountry":"DE","PoPDistanceKm":239.34492496215358,"NearestPoPDistanceKm":239.34492496215358,"Valid":true},"nextdns":{"TDoHMs":376.59963700000003,"TDoHRMs":173.09614549999998,"PoPID":"nextdns-LU-49","PoPCountry":"LU","PoPDistanceKm":15.383440347665951,"NearestPoPDistanceKm":15.383440347665951,"Valid":true},"quad9":{"TDoHMs":292.260419,"TDoHRMs":178.925888,"PoPID":"quad9-AT-42","PoPCountry":"AT","PoPDistanceKm":531.7788866988951,"NearestPoPDistanceKm":176.73328094832038,"Valid":true}},"Sessions":[{"cloudflare":{"FirstMs":259.00262799999996,"ReusedMs":169.1074135,"BlockedRuns":0,"Blocked":false,"Valid":true},"google":{"FirstMs":262.221386,"ReusedMs":164.30406299999999,"BlockedRuns":0,"Blocked":false,"Valid":true},"nextdns":{"FirstMs":267.187956,"ReusedMs":190.7529545,"BlockedRuns":0,"Blocked":false,"Valid":true},"quad9":{"FirstMs":324.806373,"ReusedMs":208.881981,"BlockedRuns":0,"Blocked":false,"Valid":true}},null],"Smart":{"cloudflare":{"TSmartMs":244.924521,"TSmartRMs":147.335078,"Winner":"doh","Valid":true},"google":{"TSmartMs":308.976,"TSmartRMs":198.6281615,"Winner":"doh","Valid":true},"nextdns":{"TSmartMs":317.187956,"TSmartRMs":190.7529545,"Winner":"dot","Valid":true},"quad9":{"TSmartMs":292.260419,"TSmartRMs":178.925888,"Winner":"doh","Valid":true}},"Do53Ms":0,"Do53Valid":false,"NSDistanceKm":6524.927065619569}],"mismatch":0,"implausible":0,"transports":{"doh":{"Queries":8,"Successes":8,"Discards":0,"LossEvents":0,"Blocked":0,"Skipped":0},"dot":{"Queries":8,"Successes":8,"Discards":0,"LossEvents":0,"Blocked":0,"Skipped":0}},"smart_wins":{"doh":3,"dot":1},"sim_stats":{"LossEvents":0,"DoTBlocked":0,"DoQBlocked":0,"ExitNodes":1,"DoHMeasurements":8,"Do53Measurements":0,"DoTMeasurements":8,"DoQMeasurements":0,"ChaosResets":0,"ChaosChurns":0,"ChaosHeaderCorruptions":0}}}`, []resolver.Kind{resolver.DoH, resolver.DoT, resolver.Smart}, proxynet.Chaos{}},
	{`{"key":"a01cba2b211f335a","name":"LU","data":{"clients":[{"ClientID":"exit-LU-000001","CountryCode":"LU","Prefix":"10.121.0.0/24","Pos":{"Lat":48.911641081428634,"Lon":7.44236760006717},"DoH":{"cloudflare":{"TDoHMs":244.924521,"TDoHRMs":147.335078,"PoPID":"cloudflare-CH-25","PoPCountry":"CH","PoPDistanceKm":141.60698095735953,"NearestPoPDistanceKm":71.25609709291024,"Valid":true},"google":{"TDoHMs":0,"TDoHRMs":0,"PoPID":"","PoPCountry":"","PoPDistanceKm":0,"NearestPoPDistanceKm":0,"Valid":false},"nextdns":{"TDoHMs":397.238024,"TDoHRMs":197.933246,"PoPID":"nextdns-LU-49","PoPCountry":"LU","PoPDistanceKm":15.383440347665951,"NearestPoPDistanceKm":15.383440347665951,"Valid":true},"quad9":{"TDoHMs":292.260419,"TDoHRMs":178.925888,"PoPID":"quad9-AT-42","PoPCountry":"AT","PoPDistanceKm":531.7788866988951,"NearestPoPDistanceKm":176.73328094832038,"Valid":true}},"Sessions":[{"cloudflare":{"FirstMs":269.77656449999995,"ReusedMs":163.1158725,"BlockedRuns":0,"Blocked":false,"Valid":true},"google":{"FirstMs":292.631486,"ReusedMs":186.2680905,"BlockedRuns":0,"Blocked":false,"Valid":true},"nextdns":{"FirstMs":241.495147,"ReusedMs":172.5796395,"BlockedRuns":0,"Blocked":false,"Valid":true},"quad9":{"FirstMs":271.7508145,"ReusedMs":166.2150345,"BlockedRuns":0,"Blocked":false,"Valid":true}},{"cloudflare":{"FirstMs":213.0076095,"ReusedMs":153.7198015,"BlockedRuns":0,"Blocked":false,"Valid":true},"google":{"FirstMs":230.545993,"ReusedMs":172.0906665,"BlockedRuns":0,"Blocked":false,"Valid":true},"nextdns":{"FirstMs":198.946549,"ReusedMs":146.969848,"BlockedRuns":1,"Blocked":false,"Valid":true},"quad9":{"FirstMs":261.489885,"ReusedMs":194.7309495,"BlockedRuns":0,"Blocked":false,"Valid":true}}],"Smart":{"cloudflare":{"TSmartMs":244.924521,"TSmartRMs":147.335078,"Winner":"doh","Valid":true},"google":{"TSmartMs":280.545993,"TSmartRMs":172.0906665,"Winner":"doq","Valid":true},"nextdns":{"TSmartMs":291.495147,"TSmartRMs":172.5796395,"Winner":"dot","Valid":true},"quad9":{"TSmartMs":292.260419,"TSmartRMs":178.925888,"Winner":"doh","Valid":true}},"Do53Ms":148.004425,"Do53Valid":true,"NSDistanceKm":6524.927065619569}],"mismatch":0,"implausible":3,"transports":{"do53":{"Queries":2,"Successes":2,"Discards":0,"LossEvents":0,"Blocked":0,"Skipped":0},"doh":{"Queries":8,"Successes":5,"Discards":3,"LossEvents":0,"Blocked":0,"Skipped":0},"doq":{"Queries":8,"Successes":7,"Discards":1,"LossEvents":0,"Blocked":1,"Skipped":0},"dot":{"Queries":8,"Successes":8,"Discards":0,"LossEvents":0,"Blocked":0,"Skipped":0}},"smart_wins":{"doh":2,"doq":1,"dot":1},"sim_stats":{"LossEvents":0,"DoTBlocked":0,"DoQBlocked":1,"ExitNodes":1,"DoHMeasurements":8,"Do53Measurements":2,"DoTMeasurements":8,"DoQMeasurements":8,"ChaosResets":1,"ChaosChurns":1,"ChaosHeaderCorruptions":1}}}`, fiveTransportConfig().Transports, soakChaos},
}

// A journal record an earlier build wrote restores to what a fresh run
// measures: the records, the smart win split and every gauge,
// injected-failure counts included.
func TestJournalRestoresMapShapedRecord(t *testing.T) {
	for _, row := range mapShapedJournal {
		cfg := smallConfig("LU")
		cfg.ClientScale = 0.05
		cfg.Transports = row.transports
		cfg.Chaos = row.chaos
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		cfg.CheckpointDir = t.TempDir()
		if err := os.WriteFile(filepath.Join(cfg.CheckpointDir, "LU.json"), []byte(row.record), 0o644); err != nil {
			t.Fatal(err)
		}
		restored := false
		cfg.OnCountryDone = func(_ string, _ int, fromJournal bool) { restored = fromJournal }
		ds, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !restored {
			t.Fatalf("%v: the record was not restored (a config key moved?)", row.transports)
		}
		if len(ds.Clients) != len(fresh.Clients) || len(ds.Clients) == 0 {
			t.Fatalf("%v: restored %d clients, a fresh run measures %d", row.transports, len(ds.Clients), len(fresh.Clients))
		}
		for i := range ds.Clients {
			if ds.Clients[i] != fresh.Clients[i] {
				t.Errorf("%v: restored client %d\n got %+v\nwant %+v", row.transports, i, ds.Clients[i], fresh.Clients[i])
			}
		}
		if !reflect.DeepEqual(ds.SmartWins, fresh.SmartWins) {
			t.Errorf("%v: restored smart wins %v, a fresh run's %v", row.transports, ds.SmartWins, fresh.SmartWins)
		}
		if !reflect.DeepEqual(ds.Obs, fresh.Obs) {
			t.Errorf("%v: the restored run's metrics differ from a fresh run's", row.transports)
		}
	}
}
