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
// state the winner's reused latency — and SmartWins must count the
// valid results by winner.
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
// test to the fifth strategy column: a five-transport campaign run as
// three shards on one journal and recombined by a run over it is the
// unsharded run, smart wins and histograms included, and exports a
// smart side table (smart.csv) byte-identical to the unsharded run's.
func TestSmartShardMergeByteIdenticalCSV(t *testing.T) {
	cfg := fiveTransportConfig("BR", "US", "IT", "NG", "AR", "MX")
	unsharded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := recombine(t, cfg, 3, false)
	sameDataset(t, ds, unsharded)
	var got, want bytes.Buffer
	if err := ds.WriteSmartCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := unsharded.WriteSmartCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("recombined smart CSV differs from the unsharded run's")
	}
	if !hasHistogram(ds, "campaign_smartr_"+string(anycast.ProviderIDs()[0])+"_ms") {
		t.Error("recombined snapshot missing smart latency histograms")
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
