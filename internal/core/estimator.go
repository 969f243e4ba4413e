// Package core implements the paper's primary contribution: recovering
// absolute DoH and Do53 resolution times at proxy exit nodes that the
// measurement client cannot control, from client-side timestamps and
// proxy headers alone (Section 3, Equations 1-8).
//
// Observables per DoH measurement:
//
//	T_A  client sends the CONNECT request
//	T_B  client receives the tunnel "200 OK"
//	T_C  client sends the TLS ClientHello
//	T_D  client receives the DoH response
//	DNS      = t3+t4  (exit's resolution of the DoH server name)
//	Connect  = t5+t6  (exit's TCP handshake with the DoH server)
//	tBD      = proxy-internal processing while establishing the tunnel
//
// Under the paper's two assumptions — the client-exit round trip is
// stable within a session, and proxy processing is paid only once —
// the estimators below hold:
//
//	RTT    = (T_B-T_A) - (DNS+Connect) - tBD                    (Eq 6)
//	t_DoH  = (T_D-T_C) - 2(T_B-T_A) + 3(DNS+Connect) + 2 tBD    (Eq 7)
//	t_DoHR = t_DoH - (DNS+Connect) - (t11+t12), t11+t12≈Connect (Eq 8)
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/proxynet"
)

// Estimate is the output of the DoH estimator for one measurement.
type Estimate struct {
	// RTT is the estimated client-to-exit round-trip time (Eq 6).
	RTT time.Duration
	// TDoH is the estimated first-query DoH resolution time at the
	// exit node, including DNS lookup of the resolver name, TCP and
	// TLS establishment, and the query itself (Eq 7).
	TDoH time.Duration
	// TDoHR is the estimated resolution time for subsequent queries
	// on a reused TLS connection (Eq 8).
	TDoHR time.Duration
}

// Estimator errors.
var (
	// ErrImplausible flags observations whose timestamps are not
	// internally consistent (e.g. T_D < T_C); the campaign drops them.
	ErrImplausible = errors.New("core: implausible observation")
	// ErrSuperProxyResolution flags Do53 headers produced by the
	// Super Proxy instead of the exit node (the 11-country limitation,
	// paper §3.5).
	ErrSuperProxyResolution = errors.New("core: Do53 resolved at the Super Proxy")
)

// implausibleError is the ErrImplausible an estimator returns, with
// what made the observation implausible. It formats its message only
// when Error is called: a campaign counts thousands of discarded runs
// and reads none of their messages.
type implausibleError struct {
	kind implausibleKind
	est  Estimate      // negativeEstimate
	dns  time.Duration // badDNSHeader
}

type implausibleKind uint8

const (
	outOfOrder implausibleKind = iota
	negativeEstimate
	badDNSHeader
)

func (e *implausibleError) Error() string {
	switch e.kind {
	case negativeEstimate:
		return fmt.Sprintf("%v: negative estimate (tDoH=%v tDoHR=%v rtt=%v)",
			ErrImplausible, e.est.TDoH, e.est.TDoHR, e.est.RTT)
	case badDNSHeader:
		return fmt.Sprintf("%v: header DNS value %v", ErrImplausible, e.dns)
	}
	return ErrImplausible.Error() + ": timestamps out of order"
}

func (e *implausibleError) Unwrap() error { return ErrImplausible }

// EstimateDoH applies Equations 6-8 to a DoH observation.
func EstimateDoH(obs proxynet.DoHObservation) (Estimate, error) {
	if obs.TB < obs.TA || obs.TD < obs.TC {
		return Estimate{}, &implausibleError{kind: outOfOrder}
	}
	tunnel := obs.TB - obs.TA              // Σ t1..t8 + tBD      (Eq 5)
	exchange := obs.TD - obs.TC            // Σ t9..t22           (Eq 2)
	setup := obs.Tun.DNS + obs.Tun.Connect // t3+t4+t5+t6
	tBD := obs.Proxy.Total()

	est := Estimate{
		RTT:   tunnel - setup - tBD,                                    // Eq 6
		TDoH:  exchange - 2*tunnel + 3*setup + 2*tBD,                   // Eq 7
		TDoHR: exchange - 2*tunnel + 2*setup + 2*tBD - obs.Tun.Connect, // Eq 8
	}
	if est.TDoH <= 0 || est.TDoHR <= 0 || est.RTT < 0 {
		return est, &implausibleError{kind: negativeEstimate, est: est}
	}
	return est, nil
}

// EstimateDo53 extracts the Do53 resolution time from the Super
// Proxy's header (paper §3.3). It fails for the 11 countries where
// the Super Proxy performs resolution itself.
func EstimateDo53(obs proxynet.Do53Observation) (time.Duration, error) {
	if obs.ViaSuperProxy {
		return 0, ErrSuperProxyResolution
	}
	// A resolution is never free: a zero or negative header value means
	// the header was missing or mangled, not that the lookup was
	// instant. Same §3.5 treatment as an inconsistent DoH observation.
	if obs.Tun.DNS <= 0 {
		return 0, &implausibleError{kind: badDNSHeader, dns: obs.Tun.DNS}
	}
	return obs.Tun.DNS, nil
}

// DoHN returns the average per-query resolution time over n queries
// issued on a single TLS connection: the first pays the full t_DoH,
// the remaining n-1 pay t_DoHR (the paper's DoH1/DoH10/DoH100/DoH1000
// notation).
func DoHN(tDoH, tDoHR time.Duration, n int) time.Duration {
	if n <= 1 {
		return tDoH
	}
	return (tDoH + time.Duration(n-1)*tDoHR) / time.Duration(n)
}
