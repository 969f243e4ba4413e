package proxynet

import (
	"sync/atomic"
	"time"

	"repro/internal/anycast"
)

// DoQ extension: RFC 9250 runs DNS over QUIC on UDP port 853. Against
// DoT's TCP-then-TLS timeline, QUIC's 1-RTT handshake (RFC 9000 §7)
// folds transport and crypto establishment into a single round trip,
// so a cold DoQ query saves one PoP round trip over DoT and two over
// TLS 1.2. The flip side is exposure: UDP/853 is both port-filtered
// like DoT and additionally dropped by middleboxes that ratelimit or
// block long-lived non-443 UDP flows, so the modeled block probability
// is slightly higher than DoT's.

// DoQBlockProb is the probability that a middlebox drops UDP port-853
// traffic for a session. Higher than DoTBlockProb: UDP on an uncommon
// port trips both port filters and UDP-hostile NATs.
const DoQBlockProb = 0.045

// DoQObservation is the client-visible outcome of a DoQ measurement.
type DoQObservation struct {
	// TA..TD mirror the DoH timestamps.
	TA, TB, TC, TD time.Duration
	// Tun and Proxy carry the Super Proxy headers.
	Tun   TunTimeline
	Proxy ProxyTimeline
	// Blocked reports that UDP/853 was filtered on the path; no timing
	// fields are valid.
	Blocked bool
}

// DoQGroundTruth carries the simulator's true values.
type DoQGroundTruth struct {
	// TDoQ is the true first-query DoQ resolution time.
	TDoQ time.Duration
	// TDoQR is the true reused-connection query time (0-RTT resumption
	// makes this the bare framed exchange, like DoT/DoH reuse).
	TDoQR time.Duration
}

// MeasureDoQ runs one DoQ measurement through the proxy network. The
// wire profile differs from DoT's in two ways: the QUIC handshake
// replaces the separate TCP connect + TLS exchange with one combined
// round trip, and the session rides UDP/853 with its own (higher)
// block probability. Service time matches DoT — the PoP still skips
// the HTTP layer.
func (s *Sim) MeasureDoQ(node *ExitNode, pid anycast.ProviderID, queryName string) (DoQObservation, DoQGroundTruth) {
	atomic.AddInt64(&s.stats.doqMeasure, 1)
	var obs DoQObservation
	var gt DoQGroundTruth
	if s.Rand.Float64() < DoQBlockProb {
		obs.Blocked = true
		atomic.AddInt64(&s.stats.doqBlocked, 1)
		s.instr.recordDoQBlocked()
		return obs, gt
	}
	provider := s.Providers[pid]
	route := s.route(node, pid)

	pathCS := s.Model.PathFromMean(s.Rand, node.meanCS)
	pathSE := s.Model.PathFromMean(s.Rand, node.meanSE)
	pathER := s.Model.PathFromMean(s.Rand, node.meanER)
	pathEP := s.Model.PathFromMean(s.Rand, route.meanEP)
	pathPA := s.Model.PathFromMean(s.Rand, route.meanPA)

	proxy := s.sampleProxyTimeline()
	obs.Proxy = proxy

	resolverSvc := time.Duration(0.3 * float64(node.ResolverOverhead))
	tlsCompute := time.Millisecond
	// Same PoP service profile as DoT: no HTTP parse/mux layer.
	doqSvc := provider.ServiceTime * 8 / 10
	authSvc := 400 * time.Microsecond

	// Phase 1: tunnel + exit-side DNS. No separate TCP connect — the
	// first packet to the PoP already carries the QUIC Initial.
	rttCS := pathCS.RTT(s.Rand)
	rttSE := pathSE.RTT(s.Rand)
	dns := pathER.RTT(s.Rand) + resolverSvc
	obs.Tun = TunTimeline{DNS: dns}
	obs.TA = 0
	obs.TB = rttCS + rttSE + dns + proxy.Total()

	// Phase 2: the combined QUIC 1-RTT handshake (Initial/Handshake in
	// one exchange). TLS 1.2 has no QUIC equivalent; the TLS12 knob
	// models a HelloRetryRequest-style extra round trip instead.
	quicRTT := pathEP.RTT(s.Rand) + tlsCompute
	if s.TLS12 {
		quicRTT += pathEP.RTT(s.Rand)
	}
	obs.TC = obs.TB

	// Phase 3: framed query on the established connection.
	req := pathEP.RTT(s.Rand) + doqSvc + pathPA.RTT(s.Rand) + authSvc
	obs.TD = obs.TC + pathCS.RTT(s.Rand) + pathSE.RTT(s.Rand) + quicRTT +
		pathCS.RTT(s.Rand) + pathSE.RTT(s.Rand) + req

	gt.TDoQ = dns + quicRTT + req
	gt.TDoQR = req
	s.instr.recordDoQ(gt)
	return obs, gt
}
