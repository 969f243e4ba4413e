package proxynet

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/geoip"
)

// sharedTablesClient is everything one client's measurements leave
// behind that a shared world table feeds: the node's address and its
// Super Proxy, the geolocation answer, and each transport's outcome.
type sharedTablesClient struct {
	ID, Super, Located string
	Addr               netip.Addr
	Pos                geo.Point
	DoH                DoHObservation
	DoHTruth           DoHGroundTruth
	Do53               Do53Observation
	Do53Truth          Do53GroundTruth
	DoT                SessionObservation
	DoTTruth           SessionGroundTruth
}

// measureOnSharedTables measures n clients of one country on sim,
// reusing one exit node as the campaign's workers do.
func measureOnSharedTables(t *testing.T, sim *Sim, code string, n int) []sharedTablesClient {
	locator := geoip.NewService(sim.Alloc)
	node := new(ExitNode)
	out := make([]sharedTablesClient, 0, n)
	for range n {
		if err := sim.SelectExitNodeInto(code, node); err != nil {
			t.Error(err)
			return nil
		}
		c := sharedTablesClient{ID: node.ID, Super: node.SuperProxyCountry(), Addr: node.Addr, Pos: node.Pos}
		c.Located, _ = locator.Locate(node.Addr)
		c.DoH, c.DoHTruth = sim.MeasureDoH(node, anycast.Cloudflare, "q.a.com.")
		c.Do53, c.Do53Truth = sim.MeasureDo53(node, "r.a.com.")
		c.DoT, c.DoTTruth = sim.MeasureSession(DoT, node, anycast.Google, "s.a.com.")
		out = append(out, c)
	}
	return out
}

// TestConcurrentSimulatorsShareWorldTables: every simulator reads the
// world's Super-Proxy table, prefix codes and provider catalogue
// without a lock. Simulators measuring different countries at once —
// one served by its own Super Proxy, one not — must each produce what
// they produce alone. Run under -race.
func TestConcurrentSimulatorsShareWorldTables(t *testing.T) {
	runs := []struct {
		seed int64
		code string
	}{{51, "BR"}, {52, "JP"}, {53, "ZA"}}
	const clients = 150
	alone := make([][]sharedTablesClient, len(runs))
	for i, r := range runs {
		alone[i] = measureOnSharedTables(t, NewSim(r.seed), r.code, clients)
	}
	together := make([][]sharedTablesClient, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = measureOnSharedTables(t, NewSim(r.seed), r.code, clients)
		}()
	}
	wg.Wait()
	mislabeled := 0
	for i, r := range runs {
		if !reflect.DeepEqual(alone[i], together[i]) {
			t.Errorf("%s (seed %d): records measured concurrently differ from records measured alone", r.code, r.seed)
		}
		for _, c := range alone[i] {
			if c.Located != r.code {
				mislabeled++
			}
		}
	}
	// A country's addresses, and so its mislabels, do not depend on the
	// seed: these three countries' first 150 /24s include some.
	if mislabeled == 0 {
		t.Error("no client was mislabeled; the shared mislabel table went unread")
	}
}

// TestResetSimMatchesFresh: a campaign worker measures country after
// country on one simulator, Reset between them. After one country with
// chaos armed, a varied calibration (losses raised) and a moved lab,
// and one more with none of them, Reset(seed) must leave nothing
// behind: the nodes (IDs, addresses, positions), the measurements,
// Stats, LossEvents and the next Int63 are NewSim(seed)'s. The workers run at once, as the campaign's do;
// verify.sh repeats this under -race.
func TestResetSimMatchesFresh(t *testing.T) {
	runs := []struct {
		seed int64
		code string
	}{{61, "BR"}, {62, "JP"}, {63, "ZA"}}
	const clients = 40
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fresh := NewSim(r.seed)
			want := measureOnSharedTables(t, fresh, r.code, clients)

			reused := NewSim(r.seed + 1)
			reused.Params.Latency.JitterSigma *= 2
			reused.Params.Latency.LossProb = 0.5
			reused.Params.Providers.Of(anycast.Cloudflare).MisrouteProb = 0.9
			reused.Lab.Pos = geo.Point{Lat: 51.5, Lon: -0.1}
			reused.EnableChaos(r.seed, Chaos{ExitChurnProb: 0.3, HeaderCorruptProb: 0.3, ConnResetProb: 0.3})
			measureOnSharedTables(t, reused, r.code, clients)
			reused.Reset(r.seed + 2)
			measureOnSharedTables(t, reused, "DE", clients)
			reused.Reset(r.seed)
			got := measureOnSharedTables(t, reused, r.code, clients)

			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (seed %d): a reset simulator's clients differ from a fresh one's", r.code, r.seed)
			}
			if g, w := reused.Stats(), fresh.Stats(); g != w {
				t.Errorf("%s (seed %d): Stats after Reset\n got %+v\nwant %+v", r.code, r.seed, g, w)
			}
			if g, w := reused.LossEvents(), fresh.LossEvents(); g != w {
				t.Errorf("%s (seed %d): LossEvents after Reset %d, want %d", r.code, r.seed, g, w)
			}
			if g, w := reused.Rand.Int63(), fresh.Rand.Int63(); g != w {
				t.Errorf("%s (seed %d): next Int63 after Reset %d, want %d", r.code, r.seed, g, w)
			}
		}()
	}
	wg.Wait()
}
