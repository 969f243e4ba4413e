package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/world"
)

func residential(code string) Endpoint {
	ct := world.MustByCode(code)
	return Endpoint{Pos: ct.Centroid, Country: ct, Residential: true}
}

func datacenter(p geo.Point) Endpoint {
	return Endpoint{Pos: p}
}

func TestLatencyGrowsWithDistance(t *testing.T) {
	m := DefaultParams().Latency
	us := datacenter(world.MustByCode("US").Centroid)
	de := datacenter(world.MustByCode("DE").Centroid)
	au := datacenter(world.MustByCode("AU").Centroid)
	nearby := m.MeanOneWay(us, us)
	mid := m.MeanOneWay(us, de)
	far := m.MeanOneWay(us, au)
	if !(nearby < mid && mid < far) {
		t.Errorf("delays not monotone: %v %v %v", nearby, mid, far)
	}
	// Transatlantic one-way should be tens of milliseconds.
	if mid < 20*time.Millisecond || mid > 120*time.Millisecond {
		t.Errorf("US-DE one-way = %v, want 20-120 ms", mid)
	}
}

func TestLastMilePenaltyByBandwidth(t *testing.T) {
	m := DefaultParams().Latency
	target := datacenter(world.MustByCode("US").Centroid)
	fast := m.MeanOneWay(residential("SE"), target) // 158 Mbps
	slow := m.MeanOneWay(residential("TD"), target) // 3 Mbps
	fastDC := m.MeanOneWay(datacenter(world.MustByCode("SE").Centroid), target)
	if fast <= fastDC {
		t.Error("residential endpoint has no last-mile penalty")
	}
	// Chad's access penalty alone should add tens of ms over pure
	// distance; compare against a hypothetical datacenter in Chad.
	slowDC := m.MeanOneWay(datacenter(world.MustByCode("TD").Centroid), target)
	if slow-slowDC < 50*time.Millisecond {
		t.Errorf("Chad last-mile penalty = %v, want >= 50 ms", slow-slowDC)
	}
	if fast-fastDC > 20*time.Millisecond {
		t.Errorf("Sweden last-mile penalty = %v, want <= 20 ms", fast-fastDC)
	}
}

func TestJitterIsBoundedAndSeeded(t *testing.T) {
	m := DefaultParams().Latency
	a, b := residential("BR"), datacenter(world.MustByCode("US").Centroid)
	mean := float64(m.MeanOneWay(a, b))

	rng1 := rand.New(rand.NewSource(7))
	rng2 := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		d1 := m.OneWay(rng1, a, b)
		d2 := m.OneWay(rng2, a, b)
		if d1 != d2 {
			t.Fatal("same seed produced different delays")
		}
		ratio := float64(d1) / mean
		if ratio < 0.5 || ratio > 2.5 {
			// Allow the rare loss penalty to push above.
			if d1 < m.LossPenalty {
				t.Errorf("jitter ratio %v out of range", ratio)
			}
		}
	}
}

func TestRTTPropertyNonNegative(t *testing.T) {
	m := DefaultParams().Latency
	rng := rand.New(rand.NewSource(1))
	countries := world.All()
	f := func(i, j uint8) bool {
		a := residential(countries[int(i)%len(countries)].Code)
		b := residential(countries[int(j)%len(countries)].Code)
		rtt := m.RTT(rng, a, b)
		return rtt >= 0 && rtt < 10*time.Second
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
