// Package netsim is the model of the global Internet that the paper
// measured through the BrightData proxy network: endpoints have
// geographic positions and country attributes, and link delays come
// from a calibrated latency model (propagation at fiber speed with path
// inflation, residential last-mile penalties derived from each
// country's broadband quality, and lognormal jitter). A Path is one
// session's route through it, and Handshake is the table of round trips
// each transport pays before its first query.
//
// Delays are drawn from a caller-supplied seeded source, not waited
// for, so campaigns covering tens of thousands of clients run in
// milliseconds of wall-clock time and are fully reproducible from a
// seed.
package netsim

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/world"
)

// Endpoint is a network attachment point: a position plus the
// properties that determine its access latency.
type Endpoint struct {
	// Pos is the endpoint's location.
	Pos geo.Point
	// Country is the hosting country; its broadband statistics drive
	// the last-mile penalty for residential endpoints.
	Country world.Country
	// Residential marks endpoints behind consumer access networks
	// (proxy exit nodes). Data-center endpoints (PoPs, our servers)
	// skip the last-mile penalty.
	Residential bool
}

// Lab is the paper's US deployment (us-east): the measurement client,
// the DoH resolvers' upstream and the authoritative name server.
var Lab = Endpoint{Pos: geo.Point{Lat: 39.04, Lon: -77.49}, Country: world.MustByCode("US")}

// The ISP-resolver model. A residential host sits within
// residentialRadiusKm of its country's centroid and its ISP default
// resolver within resolverRadiusKm. The resolver's processing overhead
// is the country's median (world.Country.ResolverOverheadMs) times a
// per-host lognormal spread, and a brokenResolverProb share of hosts
// sit behind pathological default resolvers (overloaded, lossy, or very
// distant) that add hundreds of milliseconds. These hosts are the
// population for whom switching to DoH is a win even on the first
// query — the paper found 19.1% of clients sped up at DoH1.
const (
	residentialRadiusKm   = 420
	resolverRadiusKm      = 120
	resolverOverheadSigma = 0.85
	brokenResolverProb    = 0.14
	brokenResolverMinMs   = 220
	brokenResolverMaxMs   = 950
)

// ResidentialHost draws a residential host in ct, its ISP default
// resolver and that resolver's processing overhead. Proxy exit nodes
// and Atlas probes are both such hosts, which keeps the two networks
// statistically consistent (paper §4.4). The draws from rng come in a
// fixed order that every pinned campaign output depends on: the host's
// position (two), the resolver's (two), the overhead's spread, the
// broken-resolver coin and, when it lands, the broken resolver's delay.
func ResidentialHost(rng *rand.Rand, ct world.Country) (host, resolver Endpoint, overhead time.Duration) {
	host = Endpoint{Pos: geo.Jitter(ct.Centroid, residentialRadiusKm, rng.Float64(), rng.Float64()), Country: ct, Residential: true}
	resolver = Endpoint{Pos: geo.Jitter(ct.Centroid, resolverRadiusKm, rng.Float64(), rng.Float64()), Country: ct}
	overhead = time.Duration(ct.ResolverOverheadMs * math.Exp(resolverOverheadSigma*rng.NormFloat64()) * float64(time.Millisecond))
	if rng.Float64() < brokenResolverProb {
		extra := brokenResolverMinMs + rng.Float64()*(brokenResolverMaxMs-brokenResolverMinMs)
		overhead += time.Duration(extra * float64(time.Millisecond))
	}
	return host, resolver, overhead
}

// LatencyModel converts endpoint pairs into one-way delays. The
// defaults are calibrated so that the campaign's global medians land
// near the paper's (Do53 ≈ 234 ms, DoH1 ≈ 415 ms at the client level);
// see EXPERIMENTS.md for measured values.
type LatencyModel struct {
	// FiberKmPerMs is the signal speed in fiber (~200 km/ms).
	FiberKmPerMs float64
	// PathInflation multiplies geodesic distance to account for
	// non-great-circle routing (typically 1.4–2.1).
	PathInflation float64
	// BaseMs is the fixed per-traversal overhead (serialization,
	// forwarding) in milliseconds.
	BaseMs float64
	// LastMileBaseMs and LastMileBandwidthFactor set the one-way
	// residential access delay: base + factor/bandwidthMbps.
	LastMileBaseMs          float64
	LastMileBandwidthFactor float64
	// ASSparsityMs adds one-way delay for countries with thin transit
	// markets (few ASes): ms per unit of log10(asRef/numASes), floored
	// at zero. Models long domestic backhauls to exchange points.
	ASSparsityMs float64
	ASRef        float64
	// CrossBorderIncomeMs and CrossBorderBandwidthFactor set the
	// one-way penalty a leg pays when it crosses a country border:
	// incomeMs[group] + factor/bandwidthMbps, halved for data-center
	// endpoints (which buy better transit). It models international
	// transit quality — congested submarine capacity and sparse
	// peering in lower-income, low-bandwidth economies. This is the
	// latency channel through which national infrastructure hurts DoH
	// (whose points of presence usually sit abroad) more than Do53
	// (whose first hop is the domestic ISP resolver), keeping the
	// bandwidth effect alive even under full connection reuse as the
	// paper's Table 5 reports.
	CrossBorderIncomeMs        [4]float64
	CrossBorderBandwidthFactor float64
	// JitterSigma is the sigma of the multiplicative lognormal jitter
	// (path-to-path variation; see also PacketSigma).
	JitterSigma float64
	// PacketSigma is the sigma of the per-packet jitter on an
	// established Path.
	PacketSigma float64
	// LossProb is the per-traversal probability of a loss event that
	// adds LossPenalty (a retransmission timeout).
	LossProb    float64
	LossPenalty time.Duration
	// LossCounter, when non-nil, is atomically incremented once per
	// sampled loss event. Owners of a model (proxynet.Sim) use it to
	// account for drops instead of losing them silently; Paths carry
	// the pointer along, so losses on session paths are counted too.
	LossCounter *int64
}

// DefaultLatencyModel returns the calibrated model.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		FiberKmPerMs:               200,
		PathInflation:              1.7,
		BaseMs:                     0.35,
		LastMileBaseMs:             3.0,
		LastMileBandwidthFactor:    300,
		ASSparsityMs:               9,
		ASRef:                      200,
		CrossBorderIncomeMs:        [4]float64{95, 48, 16, 0},
		CrossBorderBandwidthFactor: 420,
		JitterSigma:                0.16,
		PacketSigma:                DefaultPacketSigma,
		LossProb:                   0.0008,
		LossPenalty:                180 * time.Millisecond,
	}
}

// AuthService is the authoritative name server's time to answer one
// query, the term every simulated cache-miss resolution ends with.
const AuthService = 400 * time.Microsecond

// MeanOneWay returns the deterministic (jitter-free) one-way delay
// between a and b.
func (m LatencyModel) MeanOneWay(a, b Endpoint) time.Duration {
	distKm := geo.DistanceKm(a.Pos, b.Pos)
	ms := m.BaseMs + distKm*m.PathInflation/m.FiberKmPerMs
	ms += m.lastMileMs(a) + m.lastMileMs(b)
	if a.Country.Code != "" && b.Country.Code != "" && a.Country.Code != b.Country.Code {
		ms += m.crossBorderMs(a) + m.crossBorderMs(b)
	}
	return time.Duration(ms * float64(time.Millisecond))
}

func (m LatencyModel) crossBorderMs(e Endpoint) float64 {
	idx := int(e.Country.Income)
	if idx < 0 || idx >= len(m.CrossBorderIncomeMs) {
		return 0
	}
	income := m.CrossBorderIncomeMs[idx]
	var bw float64
	if m.CrossBorderBandwidthFactor > 0 && e.Country.BandwidthMbps > 0 {
		bw = m.CrossBorderBandwidthFactor / e.Country.BandwidthMbps
	}
	if !e.Residential {
		// Data-center endpoints (ISP resolvers, PoPs, our servers)
		// buy transit: the consumer-peering income penalty mostly
		// disappears and congestion is halved.
		return income/4 + bw/2
	}
	return income + bw
}

func (m LatencyModel) lastMileMs(e Endpoint) float64 {
	if !e.Residential {
		return 0
	}
	bw := e.Country.BandwidthMbps
	if bw <= 0 {
		bw = 1
	}
	ms := m.LastMileBaseMs + m.LastMileBandwidthFactor/bw
	if m.ASSparsityMs > 0 && e.Country.NumASes > 0 {
		sparse := math.Log10(m.ASRef / float64(e.Country.NumASes))
		if sparse > 0 {
			ms += m.ASSparsityMs * sparse
		}
	}
	return ms
}

// OneWay samples a jittered one-way delay using rng.
func (m LatencyModel) OneWay(rng *rand.Rand, a, b Endpoint) time.Duration {
	mean := m.MeanOneWay(a, b)
	d := float64(mean)
	if m.JitterSigma > 0 {
		d *= math.Exp(m.JitterSigma * rng.NormFloat64())
	}
	if m.LossProb > 0 && rng.Float64() < m.LossProb {
		d += float64(m.LossPenalty)
		countLoss(m.LossCounter)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// countLoss bumps the owner's loss counter, if any.
func countLoss(counter *int64) {
	if counter != nil {
		atomic.AddInt64(counter, 1)
	}
}

// RTT samples a jittered round-trip delay (two independent one-way
// samples).
func (m LatencyModel) RTT(rng *rand.Rand, a, b Endpoint) time.Duration {
	return m.OneWay(rng, a, b) + m.OneWay(rng, b, a)
}
