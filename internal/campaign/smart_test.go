package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/anycast"
	"repro/internal/proxynet"
	"repro/internal/resolver"
)

func fiveTransportConfig(countries ...string) Config {
	cfg := smallConfig(countries...)
	cfg.Transports = []resolver.Kind{
		resolver.Do53, resolver.DoH, resolver.DoT, resolver.DoQ, resolver.Smart,
	}
	return cfg
}

// TestSmartStrategyDerived checks the fifth strategy column's
// semantics on a live campaign: the derived result must equal the
// happy-eyeballs race over the client's measured encrypted transports
// — winning arrival min over launch-offset + first-query time, steady
// state the winner's reused latency — and the SmartWins accounting
// must add up to the valid results.
func TestSmartStrategyDerived(t *testing.T) {
	ds, err := Run(fiveTransportConfig("BR", "US", "NG"))
	if err != nil {
		t.Fatal(err)
	}
	wins := map[resolver.Kind]int{}
	valid := 0
	for i := range ds.Clients {
		c := &ds.Clients[i]
		if c.Smart.Len() != anycast.NumProviders {
			t.Fatalf("client has %d Smart results with resolver.Smart enabled", c.Smart.Len())
		}
		for _, pid := range anycast.ProviderIDs() {
			res, _ := c.Smart.Get(pid)
			// Recompute the race by hand.
			type cand struct {
				kind          resolver.Kind
				first, steady float64
			}
			var cands []cand
			if r, _ := c.DoH.Get(pid); r.Valid {
				cands = append(cands, cand{resolver.DoH, r.TDoHMs, r.TDoHRMs})
			}
			if r, _ := c.Sessions[proxynet.DoT].Get(pid); r.Valid {
				cands = append(cands, cand{resolver.DoT, r.FirstMs, r.ReusedMs})
			}
			if r, _ := c.Sessions[proxynet.DoQ].Get(pid); r.Valid {
				cands = append(cands, cand{resolver.DoQ, r.FirstMs, r.ReusedMs})
			}
			if len(cands) == 0 {
				if res.Valid {
					t.Errorf("client %s/%s: smart valid with no valid encrypted candidate", c.ClientID, pid)
				}
				continue
			}
			if !res.Valid {
				t.Errorf("client %s/%s: smart invalid despite %d candidates", c.ClientID, pid, len(cands))
				continue
			}
			best := cands[0]
			bestArrival := best.first
			for i, cd := range cands[1:] {
				arrival := float64(i+1)*smartStaggerMs + cd.first
				if arrival < bestArrival {
					best, bestArrival = cd, arrival
				}
			}
			if res.TSmartMs != bestArrival || res.Winner != string(best.kind) || res.TSmartRMs != best.steady {
				t.Errorf("client %s/%s: smart = %+v, race says arrival %v winner %s steady %v",
					c.ClientID, pid, res, bestArrival, best.kind, best.steady)
			}
			wins[resolver.Kind(res.Winner)]++
			valid++
		}
	}
	if valid == 0 {
		t.Fatal("no valid smart results in the whole campaign")
	}
	if !reflect.DeepEqual(ds.SmartWins, wins) {
		t.Errorf("SmartWins = %v, recount says %v", ds.SmartWins, wins)
	}
	// The per-transport accounting must carry DoQ and a zero-query
	// Smart entry (the derived column issues no wire queries).
	if ds.Transports[resolver.DoQ].Queries == 0 {
		t.Error("no DoQ queries accounted")
	}
	if st := ds.Transports[resolver.Smart]; st.Queries != 0 {
		t.Errorf("derived smart column issued %d wire queries", st.Queries)
	}
	// And the smart latency histograms must exist.
	if !hasHistogram(ds, "campaign_smart_"+string(anycast.ProviderIDs()[0])+"_ms") {
		t.Errorf("snapshot missing smart latency histograms: %v", ds.Obs.Histograms)
	}
}

// TestSmartShardMergeByteIdenticalCSV extends the scale-out golden
// test to the fifth strategy column: a sharded five-transport campaign,
// round-tripped through the main + smart CSV exports and merged, must
// export a smart side table byte-identical to the unsharded run's.
func TestSmartShardMergeByteIdenticalCSV(t *testing.T) {
	countries := []string{"BR", "US", "IT", "NG", "AR", "MX"}
	cfg := fiveTransportConfig(countries...)
	unsharded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := unsharded.WriteSmartCSV(&want); err != nil {
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
		var main, atlas, smart bytes.Buffer
		if err := ds.WriteCSV(&main); err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteAtlasCSV(&atlas); err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteSmartCSV(&smart); err != nil {
			t.Fatal(err)
		}
		parts[i], err = ReadCSV(&main, &atlas)
		if err != nil {
			t.Fatalf("shard %d reimport: %v", i, err)
		}
		if err := parts[i].ReadSmartCSV(&smart); err != nil {
			t.Fatalf("shard %d smart reimport: %v", i, err)
		}
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := merged.WriteSmartCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("sharded-then-merged smart CSV differs from unsharded run")
	}
	if !reflect.DeepEqual(merged.SmartWins, unsharded.SmartWins) {
		t.Errorf("merged SmartWins = %v, unsharded %v", merged.SmartWins, unsharded.SmartWins)
	}

	// The smart histograms survive the round trip exactly: compare
	// against the reimported unsharded dataset (same 4-decimal
	// rounding), not the in-memory run.
	var umain, uatlas, usmart bytes.Buffer
	if err := unsharded.WriteCSV(&umain); err != nil {
		t.Fatal(err)
	}
	if err := unsharded.WriteAtlasCSV(&uatlas); err != nil {
		t.Fatal(err)
	}
	if err := unsharded.WriteSmartCSV(&usmart); err != nil {
		t.Fatal(err)
	}
	reimported, err := ReadCSV(&umain, &uatlas)
	if err != nil {
		t.Fatal(err)
	}
	if err := reimported.ReadSmartCSV(&usmart); err != nil {
		t.Fatal(err)
	}
	whole, err := Merge(reimported)
	if err != nil {
		t.Fatal(err)
	}
	if !hasHistogram(merged, "campaign_smartr_"+string(anycast.ProviderIDs()[0])+"_ms") {
		t.Error("merged snapshot missing smart latency histograms")
	}
	if !reflect.DeepEqual(merged.Obs.Histograms, whole.Obs.Histograms) {
		t.Error("merged histograms differ from the unsharded run's")
	}
}

// hasHistogram reports whether ds's snapshot holds the named histogram.
func hasHistogram(ds *Dataset, name string) bool {
	for _, h := range ds.Obs.Histograms {
		if h.Name == name {
			return true
		}
	}
	return false
}
