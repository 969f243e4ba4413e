package proxynet

import (
	"math/rand"
	"time"
)

// Chaos layer: injectable failure modes mimicking the ways the real
// BrightData network mangled the paper's measurements. The residential
// exit pool churns constantly (a node can disappear mid-exchange), the
// X-Luminati-* headers are best-effort (occasionally absent or
// garbage), and the Super Proxy sheds load by resetting CONNECT
// tunnels. The paper's answer to all of these is §3.5: implausible
// observations are discarded, never repaired. The chaos layer exists
// to prove the pipeline degrades exactly that way — estimates either
// fail plausibility checks and become discards, or the run completes;
// nothing panics and the accounting still balances.
//
// Chaos corrupts what the *client* observes, after the measurement has
// run: the simulator's ground truth and its Rand stream are untouched,
// so enabling chaos never perturbs the underlying latency draws — a
// chaos campaign differs from its clean twin only in the corrupted
// observations. Each mode maps onto a known estimator outcome:
//
//	ExitChurnProb    exit vanished mid-exchange: the DoH response never
//	                 arrives (T_D stays at the session origin), so
//	                 T_D < T_C — a guaranteed §3.5 discard.
//	ConnResetProb    Super Proxy reset the CONNECT: no tunnel, no
//	                 headers, all-zero observation — discarded on the
//	                 non-positive estimate.
//	HeaderCorruptProb headers missing or garbage. Garbage (an inflated
//	                 DNS value) drives the Eq-6 RTT negative — a
//	                 guaranteed discard. Missing headers can yield a
//	                 plausible-but-wrong estimate, the one corruption
//	                 the estimator genuinely cannot detect.
//
// Do53 chaos zeroes the header DNS value (the only field the Do53
// estimator reads), which EstimateDo53 rejects as implausible. DoT is
// untouched: it has no header-based estimator, and port-853 blocking
// already models its failure mode.
type Chaos struct {
	// ExitChurnProb is the per-measurement probability the exit node
	// churns away before the response arrives.
	ExitChurnProb float64
	// HeaderCorruptProb is the per-measurement probability the
	// X-Luminati-* headers come back missing or garbage.
	HeaderCorruptProb float64
	// ConnResetProb is the per-measurement probability the Super Proxy
	// resets the tunnel.
	ConnResetProb float64
}

// Enabled reports whether any failure mode has a non-zero probability.
func (c Chaos) Enabled() bool {
	return c.ExitChurnProb > 0 || c.HeaderCorruptProb > 0 || c.ConnResetProb > 0
}

// chaosState carries the chaos configuration and its private random
// stream. The stream is deliberately separate from Sim.Rand so chaos
// draws never shift the latency model's sampling.
type chaosState struct {
	cfg Chaos
	rng *rand.Rand
}

// EnableChaos arms the failure injector with its own seeded stream.
// Pass a zero Chaos to disarm. Like the rest of a Sim's configuration
// this must happen before measurements start; it is not safe to call
// concurrently with them.
func (s *Sim) EnableChaos(seed int64, cfg Chaos) {
	if !cfg.Enabled() {
		s.chaos = nil
		return
	}
	s.chaos = &chaosState{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// chaosEvent is one draw's outcome.
type chaosEvent int

const (
	chaosNone chaosEvent = iota
	chaosReset
	chaosChurn
	chaosCorrupt
)

// chaosDraw samples the failure mode for one measurement and counts
// it. A single uniform draw partitions the modes so their
// probabilities are exclusive, matching how one tunnel fails one way.
func (s *Sim) chaosDraw() chaosEvent {
	c := s.chaos
	if c == nil {
		return chaosNone
	}
	u := c.rng.Float64()
	reset := c.cfg.ConnResetProb
	churn := reset + c.cfg.ExitChurnProb
	corrupt := churn + c.cfg.HeaderCorruptProb
	switch {
	case u < reset:
		s.stats.ChaosResets++
		return chaosReset
	case u < churn:
		s.stats.ChaosChurns++
		return chaosChurn
	case u < corrupt:
		s.stats.ChaosHeaderCorruptions++
		return chaosCorrupt
	}
	return chaosNone
}

// applyChaosDoH corrupts a completed DoH observation according to the
// drawn failure mode.
func (s *Sim) applyChaosDoH(o DoHObservation) DoHObservation {
	switch s.chaosDraw() {
	case chaosReset:
		// The CONNECT never came up: no timestamps, no headers.
		return DoHObservation{Provider: o.Provider, QueryName: o.QueryName}
	case chaosChurn:
		// The exit vanished mid-exchange: the response never arrives,
		// so T_D stays at the session origin (before T_C).
		o.TD = 0
	case chaosCorrupt:
		if s.chaos.rng.Intn(2) == 0 {
			// Headers absent entirely.
			o.Tun = TunTimeline{}
			o.Proxy = ProxyTimeline{}
		} else {
			// Garbage DNS value, far beyond the tunnel time itself:
			// Eq 6 goes negative and the observation is discarded.
			o.Tun.DNS += 10*(o.TB-o.TA) + time.Second
		}
	}
	return o
}

// applyChaosDo53 corrupts a completed Do53 observation. Every mode
// ends with the header DNS value — the only field the Do53 estimator
// reads — missing, which EstimateDo53 rejects.
func (s *Sim) applyChaosDo53(o Do53Observation) Do53Observation {
	switch s.chaosDraw() {
	case chaosReset:
		// The tunnel never came up at all.
		return Do53Observation{QueryName: o.QueryName}
	case chaosChurn, chaosCorrupt:
		o.Tun.DNS = 0
	}
	return o
}
