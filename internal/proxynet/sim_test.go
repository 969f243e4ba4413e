package proxynet

import (
	"testing"
	"time"

	"repro/internal/anycast"
	"repro/internal/world"
)

func TestHeaderRoundTrip(t *testing.T) {
	tun := TunTimeline{DNS: 23400 * time.Microsecond, Connect: 41250 * time.Microsecond}
	got, err := ParseTunTimeline(tun.Encode())
	if err != nil {
		t.Fatalf("ParseTunTimeline: %v", err)
	}
	if got.DNS != tun.DNS || got.Connect != tun.Connect {
		t.Errorf("round trip = %+v, want %+v", got, tun)
	}

	p := ProxyTimeline{Auth: 3 * time.Millisecond, Init: 2 * time.Millisecond,
		SelectExit: 12 * time.Millisecond, Validate: time.Millisecond}
	gotP, err := ParseProxyTimeline(p.Encode())
	if err != nil {
		t.Fatalf("ParseProxyTimeline: %v", err)
	}
	if gotP != p {
		t.Errorf("round trip = %+v, want %+v", gotP, p)
	}
	if p.Total() != 18*time.Millisecond {
		t.Errorf("Total = %v", p.Total())
	}
}

func TestHeaderParseErrors(t *testing.T) {
	for _, s := range []string{"dns:abc,connect:1", "dns", "dns:-5,connect:1"} {
		if _, err := ParseTunTimeline(s); err == nil {
			t.Errorf("ParseTunTimeline(%q) succeeded", s)
		}
	}
	if _, err := ParseTunTimeline("connect:5"); err == nil {
		t.Error("missing dns field accepted")
	}
}

func TestSelectExitNode(t *testing.T) {
	sim := NewSim(1)
	n1, err := sim.SelectExitNode("BR")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := sim.SelectExitNode("BR")
	if err != nil {
		t.Fatal(err)
	}
	if n1.ID == n2.ID {
		t.Error("exit node IDs collide")
	}
	if n1.Addr == n2.Addr {
		t.Error("exit node addresses collide")
	}
	if n1.Country.Code != "BR" {
		t.Errorf("country = %s", n1.Country.Code)
	}
	if !n1.Endpoint.Residential {
		t.Error("exit node not residential")
	}
	if _, err := sim.SelectExitNode("XX"); err == nil {
		t.Error("unknown country accepted")
	}
}

func TestSuperProxySelectionIsNearest(t *testing.T) {
	sim := NewSim(2)
	// A Brazilian exit should be served from the US Super Proxy, not
	// from Japan or Australia.
	node, err := sim.SelectExitNode("BR")
	if err != nil {
		t.Fatal(err)
	}
	if node.SuperProxyCountry() != "US" {
		t.Errorf("BR exit served by %s Super Proxy, want US", node.SuperProxyCountry())
	}
	// An Italian exit should use a European Super Proxy.
	node, err = sim.SelectExitNode("IT")
	if err != nil {
		t.Fatal(err)
	}
	sp := node.SuperProxyCountry()
	if sp != "DE" && sp != "FR" && sp != "NL" && sp != "GB" {
		t.Errorf("IT exit served by %s, want a European Super Proxy", sp)
	}
}

func TestMeasureDoHTimelineConsistency(t *testing.T) {
	sim := NewSim(3)
	node, err := sim.SelectExitNode("IT")
	if err != nil {
		t.Fatal(err)
	}
	obs, gt := sim.MeasureDoH(node, anycast.Cloudflare, "uuid-1.a.com.")

	if !(obs.TA <= obs.TB && obs.TB <= obs.TC && obs.TC < obs.TD) {
		t.Fatalf("timestamps out of order: %v %v %v %v", obs.TA, obs.TB, obs.TC, obs.TD)
	}
	// Headers echo the exact exit-side measurements.
	if obs.Tun.DNS != gt.Steps[3]+gt.Steps[4] {
		t.Errorf("header DNS = %v, want t3+t4 = %v", obs.Tun.DNS, gt.Steps[3]+gt.Steps[4])
	}
	if obs.Tun.Connect != gt.Steps[5]+gt.Steps[6] {
		t.Errorf("header Connect = %v, want t5+t6 = %v", obs.Tun.Connect, gt.Steps[5]+gt.Steps[6])
	}
	// All 22 steps must be populated and positive.
	for i := 1; i <= 22; i++ {
		if gt.Steps[i] <= 0 {
			t.Errorf("step %d = %v", i, gt.Steps[i])
		}
	}
	// Equation 1 must hold exactly for the ground truth.
	want := gt.Steps[3] + gt.Steps[4] + gt.Steps[5] + gt.Steps[6] +
		gt.Steps[11] + gt.Steps[12] +
		gt.Steps[17] + gt.Steps[18] + gt.Steps[19] + gt.Steps[20]
	if gt.TDoH != want {
		t.Errorf("TDoH = %v, want %v", gt.TDoH, want)
	}
	if gt.TDoHR >= gt.TDoH {
		t.Error("TDoHR >= TDoH; reuse must be cheaper")
	}
	// T_B - T_A covers steps 1..8 plus proxy processing.
	phase1 := gt.Steps[1] + gt.Steps[2] + gt.Steps[3] + gt.Steps[4] +
		gt.Steps[5] + gt.Steps[6] + gt.Steps[7] + gt.Steps[8] + obs.Proxy.Total()
	if obs.TB-obs.TA != phase1 {
		t.Errorf("TB-TA = %v, want %v", obs.TB-obs.TA, phase1)
	}
	// T_D - T_C covers steps 9..22.
	var phase2 time.Duration
	for i := 9; i <= 22; i++ {
		phase2 += gt.Steps[i]
	}
	if obs.TD-obs.TC != phase2 {
		t.Errorf("TD-TC = %v, want %v", obs.TD-obs.TC, phase2)
	}
}

func TestMeasureDoHUsesAssignedPoP(t *testing.T) {
	sim := NewSim(4)
	node, err := sim.SelectExitNode("DE")
	if err != nil {
		t.Fatal(err)
	}
	_, gt1 := sim.MeasureDoH(node, anycast.Google, "q1.a.com.")
	_, gt2 := sim.MeasureDoH(node, anycast.Google, "q2.a.com.")
	if gt1.PoP.ID != gt2.PoP.ID {
		t.Error("same exit node routed to different PoPs across runs")
	}
	if gt1.PoP.Provider != anycast.Google {
		t.Errorf("PoP provider = %s", gt1.PoP.Provider)
	}
	if gt1.PoPDistanceKm < gt1.NearestPoPDistanceKm {
		t.Error("used PoP closer than the nearest PoP")
	}
}

func TestMeasureDo53Valid(t *testing.T) {
	sim := NewSim(5)
	node, err := sim.SelectExitNode("BR")
	if err != nil {
		t.Fatal(err)
	}
	obs, gt := sim.MeasureDo53(node, "d1.a.com.")
	if obs.ViaSuperProxy {
		t.Fatal("BR measurement flagged as Super Proxy resolution")
	}
	if obs.Tun.DNS != gt.TDo53 {
		t.Errorf("header DNS = %v, ground truth = %v; must match exactly outside SP countries",
			obs.Tun.DNS, gt.TDo53)
	}
	if gt.TDo53 <= 0 {
		t.Errorf("TDo53 = %v", gt.TDo53)
	}
}

func TestMeasureDo53SuperProxyCountries(t *testing.T) {
	sim := NewSim(6)
	for _, code := range []string{"US", "IN", "JP"} {
		node, err := sim.SelectExitNode(code)
		if err != nil {
			t.Fatal(err)
		}
		obs, gt := sim.MeasureDo53(node, "d2.a.com.")
		if !obs.ViaSuperProxy {
			t.Errorf("%s: not flagged as Super Proxy resolution", code)
		}
		if obs.Tun.DNS == gt.TDo53 {
			t.Errorf("%s: header equals ground truth; SP header must not reflect the exit", code)
		}
	}
}

func TestDo53SlowResolverCountriesAreSlower(t *testing.T) {
	sim := NewSim(7)
	med := func(code string) time.Duration {
		var vals []time.Duration
		for i := 0; i < 30; i++ {
			node, err := sim.SelectExitNode(code)
			if err != nil {
				t.Fatal(err)
			}
			_, gt := sim.MeasureDo53(node, "x.a.com.")
			vals = append(vals, gt.TDo53)
		}
		// crude median
		for i := range vals {
			for j := i + 1; j < len(vals); j++ {
				if vals[j] < vals[i] {
					vals[i], vals[j] = vals[j], vals[i]
				}
			}
		}
		return vals[len(vals)/2]
	}
	chad := med("TD")
	sweden := med("SE")
	if chad <= sweden*2 {
		t.Errorf("Chad Do53 median %v not much slower than Sweden %v", chad, sweden)
	}
}

func TestWorldSuperProxyCount(t *testing.T) {
	if n := len(anycast.Catalogue()); n != 4 {
		t.Errorf("providers = %d", n)
	}
	if !world.IsSuperProxyCountry("SG") {
		t.Error("SG not a Super Proxy country")
	}
}
