package netsim

import (
	"time"

	"repro/internal/anycast"
)

// Params is the simulator's calibration that a caller may vary, in one
// comparable value (no pointers, maps or funcs). DefaultParams holds
// the numbers that land the campaign's global medians near the paper's
// (Do53 ≈ 234 ms, DoH1 ≈ 415 ms at the client level; EXPERIMENTS.md has
// the measured values). The proxy simulator (proxynet.Sim) carries one,
// and the probe network (atlas.New) takes its Latency; to vary a value,
// set the carrier's field before it draws. The constants below are the
// rest of the calibration, which nothing varies yet: the first caller
// that needs another value promotes one to a field.
type Params struct {
	// Latency is the link model every path is drawn from.
	Latency LatencyModel
	// Providers is each DoH provider's routing and service costs.
	Providers anycast.Calibrations
	// TLS12 negotiates TLS 1.2 instead of 1.3 for DoH and DoT sessions:
	// session establishment costs a second round trip (RFC 8446 vs RFC
	// 5246), the slowdown the paper's limitations section predicts for
	// legacy clients. DoQ, which has no TLS 1.2, pays Handshake's legacy
	// count too, as an extra exchange.
	TLS12 bool
}

// DefaultParams returns the calibrated values.
func DefaultParams() Params {
	return Params{
		Latency: LatencyModel{
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
			PacketSigma:                0.010,
			LossProb:                   0.0008,
			LossPenalty:                180 * time.Millisecond,
		},
		// In anycast.ProviderIDs order.
		Providers: anycast.Calibrations{
			{RoutingNoiseKm: 90, MisrouteProb: 0.27, MisrouteKm: 2300, ServiceTime: 10 * time.Millisecond}, // Cloudflare
			{RoutingNoiseKm: 80, MisrouteProb: 0.11, MisrouteKm: 2800, ServiceTime: 22 * time.Millisecond}, // Google
			{RoutingNoiseKm: 60, MisrouteProb: 0.02, MisrouteKm: 2000, ServiceTime: 40 * time.Millisecond,
				SetupOverhead: 130 * time.Millisecond}, // NextDNS
			{RoutingNoiseKm: 280, MisrouteProb: 0.72, MisrouteKm: 2300, ServiceTime: 18 * time.Millisecond}, // Quad9
		},
	}
}

const (
	// CryptoCompute is the peer's CPU cost of one key exchange, charged
	// once per handshake that has one.
	CryptoCompute = time.Millisecond
	// AuthService is the authoritative name server's time to answer one
	// query, the term every simulated cache-miss resolution ends with.
	AuthService = 400 * time.Microsecond
	// ResolverLookupShare is the share of its processing overhead an ISP
	// resolver adds, on top of one round trip, to the lookup of an
	// encrypted-DNS server's hostname: it almost certainly has the
	// popular name cached.
	ResolverLookupShare = 0.3
	// DoTBlockProb and DoQBlockProb are the probabilities that a
	// middlebox drops a session's port-853 traffic (DoH's port 443 is
	// never blocked this way). DoQ's is higher: UDP on an uncommon port
	// trips both port filters and UDP-hostile NATs.
	DoTBlockProb = 0.035
	DoQBlockProb = 0.045
)

// The Super Proxy's processing cost of a new tunnel: each part of the
// X-Luminati-Timeline header is uniform on [Min, Max] milliseconds.
const (
	ProxyAuthMinMs, ProxyAuthMaxMs             = 2, 8
	ProxyInitMinMs, ProxyInitMaxMs             = 1, 5
	ProxySelectExitMinMs, ProxySelectExitMaxMs = 4, 18
	ProxyValidateMinMs, ProxyValidateMaxMs     = 0.5, 3
)

// The ISP-resolver model (ResidentialHost). A residential host sits
// within residentialRadiusKm of its country's centroid and its ISP
// default resolver within resolverRadiusKm. The resolver's processing
// overhead is the country's median (world.Country.ResolverOverheadMs)
// times a per-host lognormal spread, and a brokenResolverProb share of
// hosts sit behind pathological default resolvers (overloaded, lossy,
// or very distant) that add hundreds of milliseconds. These hosts are
// the population for whom switching to DoH is a win even on the first
// query — the paper found 19.1% of clients sped up at DoH1.
const (
	residentialRadiusKm   = 420
	resolverRadiusKm      = 120
	resolverOverheadSigma = 0.85
	brokenResolverProb    = 0.14
	brokenResolverMinMs   = 220
	brokenResolverMaxMs   = 950
)
