package netsim

import (
	"math"
	"math/rand"
	"time"
)

// Path is a fixed route between two endpoints with a persistent
// sampled delay factor. Use one Path per (session, endpoint pair) so
// repeated traversals during a session are strongly correlated.
//
// A Path carries the three model fields a traversal reads, as they were
// when it was built, not the model, and the counter its losses go to:
// it is a small value that lives for one session.
type Path struct {
	mean   time.Duration
	factor float64

	packetSigma float64
	lossProb    float64
	lossPenalty time.Duration
	lossCounter *int64
}

// NewPath samples the persistent path factor for the a-b route. Each
// loss event the path samples is added to *losses, unless losses is
// nil. The add is a plain one: like rng, losses belongs to the one
// goroutine that traverses the path.
func (m LatencyModel) NewPath(rng *rand.Rand, a, b Endpoint, losses *int64) Path {
	return m.PathFromMean(rng, m.MeanOneWay(a, b), losses)
}

// PathFromMean is NewPath for a route whose MeanOneWay the caller
// already holds: the mean depends only on the two endpoints and the
// model's geometry fields, so a simulator that runs many sessions over
// one route computes it once. It draws from rng exactly as NewPath
// does. The receiver is a pointer only to spare the call a copy of the
// model.
func (m *LatencyModel) PathFromMean(rng *rand.Rand, mean time.Duration, losses *int64) Path {
	factor := 1.0
	if m.JitterSigma > 0 {
		factor = math.Exp(m.JitterSigma * rng.NormFloat64())
	}
	return Path{
		mean:        mean,
		factor:      factor,
		packetSigma: m.PacketSigma,
		lossProb:    m.LossProb,
		lossPenalty: m.LossPenalty,
		lossCounter: losses,
	}
}

// Mean returns the path's persistent one-way delay (factor applied,
// packet jitter excluded).
func (p Path) Mean() time.Duration {
	return time.Duration(float64(p.mean) * p.factor)
}

// OneWay samples a single traversal: persistent factor times small
// per-packet jitter, plus the rare loss penalty.
func (p Path) OneWay(rng *rand.Rand) time.Duration {
	d := float64(p.mean) * p.factor
	if p.packetSigma > 0 {
		d *= math.Exp(p.packetSigma * rng.NormFloat64())
	}
	if p.lossProb > 0 && rng.Float64() < p.lossProb {
		d += float64(p.lossPenalty)
		if p.lossCounter != nil {
			*p.lossCounter++
		}
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// RTT samples a round trip on the path.
func (p Path) RTT(rng *rand.Rand) time.Duration {
	return p.OneWay(rng) + p.OneWay(rng)
}
