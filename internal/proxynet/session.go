package proxynet

import (
	"time"

	"repro/internal/anycast"
	"repro/internal/netsim"
)

// Extension transports: the paper focuses on DoH but frames it against
// DNS-over-TLS (Section 2: DoT's port 853 trips port-oriented
// firewalls, which is part of why DoH won deployment) and compares
// results with Doan et al.'s RIPE-Atlas DoT study; RFC 9250 since put
// DNS on QUIC. MeasureSession runs them through the same proxy tunnel
// as MeasureDoH so the extension experiments can put Do53, DoT, DoQ and
// DoH side by side on an identical substrate. A transport is a row of
// sessionProfiles: how its session is established, how exposed its port.

// Transport indexes sessionProfiles.
type Transport uint8

const (
	// DoT is DNS over TLS on TCP port 853 (RFC 7858).
	DoT Transport = iota
	// DoQ is DNS over QUIC on UDP port 853 (RFC 9250): against DoT's
	// TCP-then-TLS, its handshake saves a cold query one PoP round trip.
	DoQ
	// NumTransports is the number of rows.
	NumTransports
)

// sessionProfiles is the extension transports' table: the row's part of
// its proxynet_<name>_* metric names, the probability that a middlebox
// drops a session's port-853 traffic, and how a session is established.
var sessionProfiles = [NumTransports]struct {
	name      string
	blockProb float64
	handshake netsim.Handshake
}{
	DoT: {"dot", netsim.DoTBlockProb, netsim.TCPTLS},
	DoQ: {"doq", netsim.DoQBlockProb, netsim.QUIC},
}

// SessionObservation is the client-visible outcome of a DoT or DoQ
// measurement.
type SessionObservation struct {
	// TA..TD mirror the DoH timestamps.
	TA, TB, TC, TD time.Duration
	// Tun and Proxy carry the Super Proxy headers. Tun.Connect is zero
	// on DoQ: the first packet to the PoP already carries the QUIC Initial.
	Tun   TunTimeline
	Proxy ProxyTimeline
	// Blocked reports that port 853 was filtered on the path; no
	// timing fields are valid.
	Blocked bool
}

// SessionGroundTruth carries the simulator's true values.
type SessionGroundTruth struct {
	// First is the true first-query resolution time: exit-side DNS
	// lookup, handshake, query.
	First time.Duration
	// Reused is the true query time on an established session (for
	// DoQ, 0-RTT resumption makes this the bare framed exchange too).
	Reused time.Duration
}

// MeasureSession runs one DoT or DoQ measurement through the proxy
// network. Against DoH's, the wire profile has no HTTP framing at the
// PoP (slightly lower service time), no DoH-specific setup overhead,
// the row's handshake, and port 853's exposure to port filtering.
//
// The order of draws from s.Rand is as fixed as MeasureDoH's, and for
// the same reason: the block draw; the PoP assignment if this is the
// node's first use of the provider; the persistent factors of the five
// paths (CS, SE, ER, EP, PA); the four proxy-timeline costs; the CS, SE
// and ER round trips; the handshake's transport round trips, then its
// crypto ones (netsim.Handshake.Draw); EP and PA for the query; CS, SE,
// CS, SE for the client-side timestamps.
func (s *Sim) MeasureSession(tr Transport, node *ExitNode, pid anycast.ProviderID, queryName string) (SessionObservation, SessionGroundTruth) {
	var obs SessionObservation
	var gt SessionGroundTruth
	if s.Rand.Float64() < sessionProfiles[tr].blockProb {
		obs.Blocked = true
		return obs, gt
	}
	provider := s.Params.Providers.Of(pid)
	route := s.route(node, pid)
	rng := s.Rand

	pathCS := s.path(node.meanCS)
	pathSE := s.path(node.meanSE)
	pathER := s.path(node.meanER)
	pathEP := s.path(route.meanEP)
	pathPA := s.path(route.meanPA)

	obs.Proxy = s.sampleProxyTimeline()

	// Phase 1: tunnel + exit-side DNS + the transport's own connect, if
	// it has one. Phase 2: key exchange (over the connection for TLS,
	// QUIC's combined handshake).
	rttCS := pathCS.RTT(rng)
	rttSE := pathSE.RTT(rng)
	dns := pathER.RTT(rng) + node.resolverSvc()
	connect, crypto := sessionProfiles[tr].handshake.Draw(s.Params.TLS12, func() time.Duration { return pathEP.RTT(rng) })
	obs.Tun = TunTimeline{DNS: dns, Connect: connect}
	obs.TB = rttCS + rttSE + dns + connect + obs.Proxy.Total()
	obs.TC = obs.TB

	// Phase 3: framed query. The PoP skips the HTTP parse/mux layer.
	req := pathEP.RTT(rng) + provider.ServiceTime*8/10 + pathPA.RTT(rng) + netsim.AuthService
	obs.TD = obs.TC + pathCS.RTT(rng) + pathSE.RTT(rng) + crypto +
		pathCS.RTT(rng) + pathSE.RTT(rng) + req

	gt.First = dns + connect + crypto + req
	gt.Reused = req
	return obs, gt
}
