package proxynet

import (
	"sync/atomic"
	"time"

	"repro/internal/anycast"
)

// DoT extension: the paper focuses on DoH but frames it against
// DNS-over-TLS (Section 2: DoT's port 853 trips port-oriented
// firewalls, which is part of why DoH won deployment) and compares
// results with Doan et al.'s RIPE-Atlas DoT study. MeasureDoT runs
// the same 22-step proxy timeline with DoT's protocol profile so the
// extension experiment can put Do53, DoT, and DoH side by side on an
// identical substrate.

// DoTBlockProb is the probability that a middlebox drops port-853
// traffic for a session (DoH's port 443 is never blocked this way).
const DoTBlockProb = 0.035

// DoTObservation is the client-visible outcome of a DoT measurement.
type DoTObservation struct {
	// TA..TD mirror the DoH timestamps.
	TA, TB, TC, TD time.Duration
	// Tun and Proxy carry the Super Proxy headers.
	Tun   TunTimeline
	Proxy ProxyTimeline
	// Blocked reports that port 853 was filtered on the path; no
	// timing fields are valid.
	Blocked bool
}

// DoTGroundTruth carries the simulator's true values.
type DoTGroundTruth struct {
	// TDoT is the true first-query DoT resolution time.
	TDoT time.Duration
	// TDoTR is the true reused-connection query time.
	TDoTR time.Duration
}

// MeasureDoT runs one DoT measurement through the proxy network.
// DoT's wire profile differs from DoH's in three ways: no HTTP
// framing at the PoP (slightly lower service time), no DoH-specific
// setup overhead, and port 853 exposure to port-oriented filtering.
func (s *Sim) MeasureDoT(node *ExitNode, pid anycast.ProviderID, queryName string) (DoTObservation, DoTGroundTruth) {
	atomic.AddInt64(&s.stats.dotMeasure, 1)
	var obs DoTObservation
	var gt DoTGroundTruth
	if s.Rand.Float64() < DoTBlockProb {
		obs.Blocked = true
		atomic.AddInt64(&s.stats.dotBlocked, 1)
		s.instr.recordDoTBlocked()
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
	// DoT skips the HTTP parse/mux layer inside the PoP.
	dotSvc := provider.ServiceTime * 8 / 10
	authSvc := 400 * time.Microsecond

	// Phase 1: tunnel + exit-side DNS + TCP handshake with the PoP.
	rttCS := pathCS.RTT(s.Rand)
	rttSE := pathSE.RTT(s.Rand)
	dns := pathER.RTT(s.Rand) + resolverSvc
	connect := pathEP.RTT(s.Rand)
	obs.Tun = TunTimeline{DNS: dns, Connect: connect}
	obs.TA = 0
	obs.TB = rttCS + rttSE + dns + connect + proxy.Total()

	// Phase 2: TLS handshake (one RTT under 1.3, two under 1.2).
	tlsRTT := pathEP.RTT(s.Rand) + tlsCompute
	if s.TLS12 {
		tlsRTT += pathEP.RTT(s.Rand)
	}
	obs.TC = obs.TB

	// Phase 3: framed query.
	req := pathEP.RTT(s.Rand) + dotSvc + pathPA.RTT(s.Rand) + authSvc
	obs.TD = obs.TC + pathCS.RTT(s.Rand) + pathSE.RTT(s.Rand) + tlsRTT +
		pathCS.RTT(s.Rand) + pathSE.RTT(s.Rand) + req

	gt.TDoT = dns + connect + tlsRTT + req
	gt.TDoTR = req
	s.instr.recordDoT(gt)
	return obs, gt
}
