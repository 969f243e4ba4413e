package proxynet

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"repro/internal/anycast"
	"repro/internal/geoip"
)

// sharedTablesClient is everything one client's measurements leave
// behind that a shared world table feeds: the node's address and its
// Super Proxy, the geolocation answer, and each transport's outcome.
type sharedTablesClient struct {
	ID, Super, Located string
	Addr               netip.Addr
	DoH                DoHObservation
	DoHTruth           DoHGroundTruth
	Do53               Do53Observation
	Do53Truth          Do53GroundTruth
	DoT                SessionObservation
	DoTTruth           SessionGroundTruth
}

// measureOnSharedTables measures n clients of one country on a fresh
// simulator seeded with seed, reusing one exit node as the campaign's
// workers do.
func measureOnSharedTables(t *testing.T, seed int64, code string, n int) []sharedTablesClient {
	sim := NewSim(seed)
	locator := geoip.NewService(sim.Alloc)
	node := new(ExitNode)
	out := make([]sharedTablesClient, 0, n)
	for range n {
		if err := sim.SelectExitNodeInto(code, node); err != nil {
			t.Error(err)
			return nil
		}
		c := sharedTablesClient{ID: node.ID, Super: node.SuperProxyCountry(), Addr: node.Addr}
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
		alone[i] = measureOnSharedTables(t, r.seed, r.code, clients)
	}
	together := make([][]sharedTablesClient, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = measureOnSharedTables(t, r.seed, r.code, clients)
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
