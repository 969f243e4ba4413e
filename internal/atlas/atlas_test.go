package atlas

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/proxynet"
	"repro/internal/world"
)

func testAuth() netsim.Endpoint {
	return netsim.Endpoint{Pos: geo.Point{Lat: 39.04, Lon: -77.49}, Country: world.MustByCode("US")}
}

func TestProbeProvisioning(t *testing.T) {
	n := New(1, netsim.DefaultParams().Latency, testAuth())
	p, err := n.Probe("DE")
	if err != nil {
		t.Fatal(err)
	}
	if p.Country.Code != "DE" || !p.Endpoint.Residential {
		t.Errorf("probe = %+v", p)
	}
	if _, err := n.Probe("XX"); err == nil {
		t.Error("unknown country accepted")
	}
}

func TestMeasureDo53Positive(t *testing.T) {
	n := New(2, netsim.DefaultParams().Latency, testAuth())
	p, err := n.Probe("US")
	if err != nil {
		t.Fatal(err)
	}
	d := n.MeasureDo53(&p)
	if d <= 0 || d > 5*time.Second {
		t.Errorf("Do53 = %v", d)
	}
}

func TestCountryMedianValidation(t *testing.T) {
	n := New(3, netsim.DefaultParams().Latency, testAuth())
	if _, err := n.CountryMedianDo53("US", 0, 5); err == nil {
		t.Error("zero probes accepted")
	}
	med, err := n.CountryMedianDo53("JP", 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if med <= 0 {
		t.Errorf("median = %f", med)
	}
	// A median costs its values and the median's sorted copy: a probe
	// is a value, and nothing names it.
	allocs := testing.AllocsPerRun(20, func() { n.CountryMedianDo53("JP", 25, 10) })
	if allocs > 2 {
		t.Errorf("CountryMedianDo53 allocates %.0f times per call, want <= 2", allocs)
	}
}

// TestAtlasAgreesWithBrightData reproduces the paper's §4.4 overlap
// validation: in countries measurable by both networks, the Do53
// medians must agree closely (paper: mean difference 7.6 ms).
func TestAtlasAgreesWithBrightData(t *testing.T) {
	sim := proxynet.NewSim(77)
	at := New(78, sim.Params.Latency, sim.Lab)

	overlap := []string{"BE", "ZA", "SE", "IT", "IR", "GR", "CH", "ES", "NO", "DK"}
	var totalDiff float64
	for _, code := range overlap {
		var bd []float64
		for i := 0; i < 25; i++ {
			node, err := sim.SelectExitNode(code)
			if err != nil {
				t.Fatal(err)
			}
			_, gt := sim.MeasureDo53(node, "x.a.com.")
			bd = append(bd, float64(gt.TDo53)/float64(time.Millisecond))
		}
		bdMed := medianOf(bd)
		atMed, err := at.CountryMedianDo53(code, 25, 1)
		if err != nil {
			t.Fatal(err)
		}
		diff := math.Abs(bdMed - atMed)
		totalDiff += diff
		if diff > 0.25*bdMed+25 {
			t.Errorf("%s: BrightData %f ms vs Atlas %f ms", code, bdMed, atMed)
		}
	}
	if avg := totalDiff / float64(len(overlap)); avg > 40 {
		t.Errorf("average network disagreement %.1f ms, want small (paper: 7.6)", avg)
	}
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := range s {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
