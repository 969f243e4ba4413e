package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/world"
)

func pathEndpoints() (Endpoint, Endpoint) {
	br := world.MustByCode("BR")
	us := world.MustByCode("US")
	return Endpoint{Pos: br.Centroid, Country: br, Residential: true},
		Endpoint{Pos: us.Centroid, Country: us}
}

func TestPathPersistenceWithinSession(t *testing.T) {
	// Samples on one path must be far more correlated than samples
	// across independently created paths — the physical fact behind
	// the paper's stable-RTT assumption.
	m := DefaultParams().Latency
	m.LossProb = 0
	a, b := pathEndpoints()
	rng := rand.New(rand.NewSource(9))

	within := 0.0
	p := m.NewPath(rng, a, b, nil)
	base := p.OneWay(rng)
	for i := 0; i < 200; i++ {
		d := p.OneWay(rng)
		within += math.Abs(float64(d-base)) / float64(base)
	}
	within /= 200

	across := 0.0
	for i := 0; i < 200; i++ {
		q := m.NewPath(rng, a, b, nil)
		d := q.OneWay(rng)
		across += math.Abs(float64(d-base)) / float64(base)
	}
	across /= 200

	if within*3 > across {
		t.Errorf("within-path variation %.4f not well below across-path %.4f", within, across)
	}
	// Per-packet jitter is PacketSigma-scale.
	if within > 5*m.PacketSigma {
		t.Errorf("within-path variation %.4f too large for sigma %.3f", within, m.PacketSigma)
	}
}

func TestPathMeanMatchesFactor(t *testing.T) {
	m := DefaultParams().Latency
	m.JitterSigma = 0
	a, b := pathEndpoints()
	rng := rand.New(rand.NewSource(1))
	p := m.NewPath(rng, a, b, nil)
	if p.Mean() != m.MeanOneWay(a, b) {
		t.Errorf("Mean = %v, want %v with zero jitter", p.Mean(), m.MeanOneWay(a, b))
	}
}

func TestPathLossAddsPenalty(t *testing.T) {
	m := DefaultParams().Latency
	m.JitterSigma = 0
	m.PacketSigma = 0
	m.LossProb = 1 // every traversal loses
	a, b := pathEndpoints()
	rng := rand.New(rand.NewSource(2))
	p := m.NewPath(rng, a, b, nil)
	d := p.OneWay(rng)
	if d < m.LossPenalty {
		t.Errorf("lossy traversal %v below the loss penalty %v", d, m.LossPenalty)
	}
}

func TestCrossBorderAsymmetries(t *testing.T) {
	m := DefaultParams().Latency
	br := world.MustByCode("BR")
	us := world.MustByCode("US")
	se := world.MustByCode("SE")

	resBR := Endpoint{Pos: br.Centroid, Country: br, Residential: true}
	dcBR := Endpoint{Pos: br.Centroid, Country: br}
	dcUS := Endpoint{Pos: us.Centroid, Country: us}
	dcSE := Endpoint{Pos: se.Centroid, Country: se}

	// Residential cross-border pays more than datacenter cross-border
	// from the same place.
	resLeg := m.MeanOneWay(resBR, dcUS)
	dcLeg := m.MeanOneWay(dcBR, dcUS)
	if resLeg <= dcLeg {
		t.Errorf("residential leg %v <= datacenter leg %v", resLeg, dcLeg)
	}

	// Domestic legs pay no cross-border penalty: compare same-distance
	// pairs via a zero-distance probe.
	samePlaceDomestic := m.MeanOneWay(dcBR, Endpoint{Pos: br.Centroid, Country: br})
	samePlaceForeign := m.MeanOneWay(dcBR, Endpoint{Pos: br.Centroid, Country: se})
	if samePlaceForeign <= samePlaceDomestic {
		t.Errorf("cross-border zero-distance leg %v <= domestic %v", samePlaceForeign, samePlaceDomestic)
	}
	_ = dcSE

	// Rich-country pairs pay almost nothing extra.
	seUS := m.MeanOneWay(dcSE, dcUS)
	distOnly := m.MeanOneWay(Endpoint{Pos: se.Centroid}, Endpoint{Pos: us.Centroid})
	if extra := seUS - distOnly; extra > 5*time.Millisecond {
		t.Errorf("SE-US datacenter cross-border extra = %v, want tiny", extra)
	}
}

// A path built from a precomputed mean is the path NewPath builds: same
// draws, same traversals, and it counts losses on the counter it was
// built with, under the model as it stood when it was built.
func TestPathFromMeanMatchesNewPath(t *testing.T) {
	m := DefaultParams().Latency
	m.LossProb = 0.3
	var losses int64
	a, b := pathEndpoints()
	r1, r2 := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	mean := m.MeanOneWay(a, b)
	for i := 0; i < 50; i++ {
		p, q := m.NewPath(r1, a, b, &losses), m.PathFromMean(r2, mean, &losses)
		if p != q {
			t.Fatalf("path %d: NewPath %+v, PathFromMean %+v", i, p, q)
		}
		if d, e := p.RTT(r1), q.RTT(r2); d != e {
			t.Fatalf("path %d: round trips %v and %v", i, d, e)
		}
	}
	if losses == 0 || losses%2 != 0 {
		t.Errorf("loss counter = %d, want the same non-zero count from both paths", losses)
	}
	p := m.PathFromMean(r1, mean, &losses)
	m.LossProb = 0
	before := losses
	for i := 0; i < 50; i++ {
		p.OneWay(r1)
	}
	if losses == before {
		t.Error("a built path followed a later change to the model")
	}
}
