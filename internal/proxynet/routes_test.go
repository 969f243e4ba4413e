package proxynet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/world"
)

// What a node caches must be what the measurements used to recompute on
// every run, bit for bit: MeasureSession and MeasureDo53 read the same
// fields MeasureDoH is held to the event timeline on.
func TestExitNodeCachesRouteMeans(t *testing.T) {
	sim := NewSim(21)
	for _, code := range []string{"US", "JP", "BR", "KE", "FJ"} {
		node, err := sim.SelectExitNode(code)
		if err != nil {
			t.Fatal(err)
		}
		m := sim.Params.Latency
		spResolver := netsim.Endpoint{Pos: node.super.Pos, Country: node.super.Country}
		for _, c := range []struct {
			name      string
			got, want time.Duration
			superOnly bool
		}{
			{"lab-super", node.meanCS, m.MeanOneWay(sim.Lab, node.super), false},
			{"super-exit", node.meanSE, m.MeanOneWay(node.super, node.Endpoint), false},
			{"exit-resolver", node.meanER, m.MeanOneWay(node.Endpoint, node.ResolverEndpoint), false},
			{"resolver-lab", node.meanRA, m.MeanOneWay(node.ResolverEndpoint, sim.Lab), false},
			{"exit-lab", node.meanEL, m.MeanOneWay(node.Endpoint, sim.Lab), false},
			{"super-its resolver", node.meanSR, m.MeanOneWay(node.super, spResolver), true},
			{"super's resolver-lab", node.meanRL, m.MeanOneWay(spResolver, sim.Lab), true},
			{"super-lab", node.meanSL, m.MeanOneWay(node.super, sim.Lab), true},
		} {
			if c.superOnly && !world.IsSuperProxyCountry(code) {
				continue
			}
			if c.got != c.want {
				t.Errorf("%s %s mean = %v, MeanOneWay = %v", code, c.name, c.got, c.want)
			}
		}
		for _, pid := range anycast.ProviderIDs() {
			pop := sim.PoPFor(node, pid)
			r := sim.route(node, pid)
			if r.PoP != pop || sim.PoPFor(node, pid) != pop {
				t.Fatalf("%s/%s: PoP changed between uses", code, pid)
			}
			ep := netsim.Endpoint{Pos: pop.Pos, Country: world.MustByCode(pop.CountryCode)}
			if want := m.MeanOneWay(node.Endpoint, ep); r.meanEP != want {
				t.Errorf("%s/%s exit-PoP mean = %v, MeanOneWay = %v", code, pid, r.meanEP, want)
			}
			if want := m.MeanOneWay(ep, sim.Lab); r.meanPA != want {
				t.Errorf("%s/%s PoP-lab mean = %v, MeanOneWay = %v", code, pid, r.meanPA, want)
			}
			if want := geo.DistanceKm(node.Pos, pop.Pos); r.DistanceKm != want {
				t.Errorf("%s/%s PoP distance = %v, want %v", code, pid, r.DistanceKm, want)
			}
			if _, want := anycast.Catalogue()[pid].NearestPoP(node.Pos); r.NearestDistanceKm != want {
				t.Errorf("%s/%s nearest-PoP distance = %v, want %v", code, pid, r.NearestDistanceKm, want)
			}
		}
		if len(node.pops) != 4 || &node.pops[0] != &node.popBuf[0] {
			t.Errorf("%s: four providers should fit the node's own route storage", code)
		}
	}
}

// Once a node's PoPs are assigned, a measurement is its random draws:
// no closure, no event heap, no distance or country lookup, and so no
// allocation.
func TestMeasureAllocationFree(t *testing.T) {
	sim := NewSim(22)
	node, err := sim.SelectExitNode("BR")
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range anycast.ProviderIDs() {
		sim.PoPFor(node, pid)
	}
	for name, measure := range map[string]func(){
		"MeasureDoH":          func() { sim.MeasureDoH(node, anycast.Quad9, "a.a.com.") },
		"MeasureSession(DoT)": func() { sim.MeasureSession(DoT, node, anycast.Google, "a.a.com.") },
		"MeasureSession(DoQ)": func() { sim.MeasureSession(DoQ, node, anycast.NextDNS, "a.a.com.") },
		"MeasureDo53":         func() { sim.MeasureDo53(node, "a.a.com.") },
	} {
		if n := testing.AllocsPerRun(200, measure); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
	// Selecting into a reused node costs the one thing the dataset keeps
	// of it, the ID string, and that is cut from the node's chunks: a
	// chunk holds some 290 IDs.
	reused := new(ExitNode)
	if n := testing.AllocsPerRun(200, func() {
		if err := sim.SelectExitNodeInto("BR", reused); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SelectExitNodeInto allocates %v times per call, want 0 (a share of a chunk)", n)
	}
}

// A node selected into again is a fresh node: on two identically seeded
// simulators, one reusing a single node for every client and one asking
// for a new node per client, every observation and ground truth of all
// four measurements agree, and so do the counters and both random
// streams afterwards. The countries alternate in and out of Super-Proxy
// countries (US, JP, DE), where a node carries three more route means.
func TestSelectExitNodeIntoMatchesFresh(t *testing.T) {
	countries := []string{"US", "BR", "JP", "KE", "KE", "DE", "IT"}
	chaos := Chaos{ExitChurnProb: 0.2, HeaderCorruptProb: 0.3, ConnResetProb: 0.2}
	for _, withChaos := range []bool{false, true} {
		reused, fresh := NewSim(31), NewSim(31)
		if withChaos {
			reused.EnableChaos(131, chaos)
			fresh.EnableChaos(131, chaos)
		}
		var node ExitNode
		for i, code := range countries {
			at := fmt.Sprintf("chaos=%v client %d (%s)", withChaos, i, code)
			if err := reused.SelectExitNodeInto(code, &node); err != nil {
				t.Fatal(err)
			}
			want, err := fresh.SelectExitNode(code)
			if err != nil {
				t.Fatal(err)
			}
			if node.ID != want.ID || node.Addr != want.Addr || node.Pos != want.Pos ||
				node.ResolverOverhead != want.ResolverOverhead || node.SuperProxyCountry() != want.SuperProxyCountry() {
				t.Fatalf("%s: reused node %s differs from fresh node %s", at, node.ID, want.ID)
			}
			name := fmt.Sprintf("%s-%d.a.com.", code, i)
			gotO53, gotGT53 := reused.MeasureDo53(&node, name)
			wantO53, wantGT53 := fresh.MeasureDo53(want, name)
			if gotO53 != wantO53 || gotGT53 != wantGT53 {
				t.Fatalf("%s: Do53\n got %+v %+v\nwant %+v %+v", at, gotO53, gotGT53, wantO53, wantGT53)
			}
			// The first use of each provider assigns its route: DoQ for
			// one half of the clients, DoH for the other.
			for _, pid := range anycast.ProviderIDs() {
				if i%2 == 0 {
					gotS, gotSGT := reused.MeasureSession(DoQ, &node, pid, name)
					wantS, wantSGT := fresh.MeasureSession(DoQ, want, pid, name)
					if gotS != wantS || gotSGT != wantSGT {
						t.Fatalf("%s %s: DoQ\n got %+v %+v\nwant %+v %+v", at, pid, gotS, gotSGT, wantS, wantSGT)
					}
				}
				gotO, gotGT := reused.MeasureDoH(&node, pid, name)
				wantO, wantGT := fresh.MeasureDoH(want, pid, name)
				if gotO != wantO || gotGT != wantGT {
					t.Fatalf("%s %s: DoH\n got %+v %+v\nwant %+v %+v", at, pid, gotO, gotGT, wantO, wantGT)
				}
				gotS, gotSGT := reused.MeasureSession(DoT, &node, pid, name)
				wantS, wantSGT := fresh.MeasureSession(DoT, want, pid, name)
				if gotS != wantS || gotSGT != wantSGT {
					t.Fatalf("%s %s: DoT\n got %+v %+v\nwant %+v %+v", at, pid, gotS, gotSGT, wantS, wantSGT)
				}
			}
		}
		if g, w := reused.Stats(), fresh.Stats(); g != w {
			t.Errorf("chaos=%v: stats %+v, want %+v", withChaos, g, w)
		}
		if g, w := reused.LossEvents(), fresh.LossEvents(); g != w {
			t.Errorf("chaos=%v: %d loss events, want %d", withChaos, g, w)
		}
		if g, w := reused.Rand.Int63(), fresh.Rand.Int63(); g != w {
			t.Errorf("chaos=%v: random stream diverged (next Int63 %d, want %d)", withChaos, g, w)
		}
		if withChaos && reused.chaos.rng.Int63() != fresh.chaos.rng.Int63() {
			t.Error("chaos stream diverged")
		}
	}
}

func TestExitIDMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 42, 99999, 100000, 999999, 1000000, 123456789} {
		want := fmt.Sprintf("exit-%s-%06d", "BR", n)
		if got := string(appendExitID(nil, "BR", n)); got != want {
			t.Errorf("appendExitID(BR, %d) = %q, want %q", n, got, want)
		}
	}
}

// Every Sim reads the one shared fleet catalogue through calibration
// of its own: varying a provider on one simulator (in its Params) must
// not reach another.
func TestProvidersMapIsPerSim(t *testing.T) {
	varied, other, ref := NewSim(23), NewSim(23), NewSim(23)
	cal := varied.Params.Providers.Of(anycast.Cloudflare)
	cal.MisrouteProb, cal.MisrouteKm = 1, 20000
	if other.Params != netsim.DefaultParams() {
		t.Fatal("varying one Sim's provider changed another Sim's")
	}
	moved := false
	for _, code := range []string{"BR", "IT", "ZA", "TH", "PL", "EG"} {
		nodes := make([]*ExitNode, 3)
		for i, sim := range []*Sim{varied, other, ref} {
			node, err := sim.SelectExitNode(code)
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
		}
		_, gtVaried := varied.MeasureDoH(nodes[0], anycast.Cloudflare, "x.a.com.")
		obsOther, gtOther := other.MeasureDoH(nodes[1], anycast.Cloudflare, "x.a.com.")
		obsRef, gtRef := ref.MeasureDoH(nodes[2], anycast.Cloudflare, "x.a.com.")
		if obsOther != obsRef || gtOther != gtRef {
			t.Errorf("%s: a sibling Sim's varied provider changed this Sim's measurement", code)
		}
		if gtVaried.PoP != gtRef.PoP {
			moved = true
		}
	}
	if !moved {
		t.Error("always-misrouted Cloudflare reached the same PoPs as the stock one in six countries")
	}
}
