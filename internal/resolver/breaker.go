package resolver

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// Circuit breaker: a live client can face a target whose transport is
// entirely dead (port-853 filtering, DoH blocked nationally). Without
// failure isolation every query against it burns its full timeout
// budget. The breaker trips per target after a run of consecutive
// failures, short-circuits further attempts, and probes periodically
// so a recovered target closes the circuit again.
//
// State machine:
//
//	Closed ──FailureThreshold consecutive failures──▶ Open
//	Open ──breakerProbeInterval since the trip──▶ HalfOpen
//	HalfOpen ──one success──▶ Closed
//	HalfOpen ──any failure──▶ Open (a re-trip)

// ErrBreakerOpen is returned by the WithBreaker middleware for calls
// short-circuited while the breaker is open. It counts as a skip, not
// a transport attempt: nothing was sent on the wire.
var ErrBreakerOpen = errors.New("resolver: circuit breaker open")

// BreakerState is the breaker's position.
type BreakerState int32

// The breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breakerProbeInterval admits a half-open probe this long after the
// trip, on the policy's Now clock.
const breakerProbeInterval = 30 * time.Second

// BreakerPolicy parameterizes a Breaker.
type BreakerPolicy struct {
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker (default 5).
	FailureThreshold int
	// Now is the clock (default time.Now; tests inject a fake).
	Now func() time.Time
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = 5
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// Breaker is the failure-isolation state machine. Use it directly
// (Allow/Success/Failure) around any operation — the smart racer wraps
// each candidate this way — or as a Resolver middleware via
// WithBreaker. Safe for concurrent use.
type Breaker struct {
	p BreakerPolicy

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time

	// The breaker's ledger, which Instrument files in a registry.
	trips, shortCircuits, probes *obs.Counter
	open                         *obs.Gauge
}

// NewBreaker constructs a closed breaker. Its counters are its own, in
// no registry, until Instrument files them in one.
func NewBreaker(p BreakerPolicy) *Breaker {
	return &Breaker{
		p:     p.withDefaults(),
		trips: new(obs.Counter), shortCircuits: new(obs.Counter), probes: new(obs.Counter),
		open: new(obs.Gauge),
	}
}

// Instrument files the breaker's counters in reg under
// resolver_<kind>_breaker_* names: _trips_total, _short_circuits_total
// and _probes_total plus an _open gauge (1 open, 0.5 half-open, 0
// closed). Call it before the breaker is shared. A name is one count:
// two breakers instrumented under one kind in one registry share their
// counts.
func (b *Breaker) Instrument(reg *obs.Registry, kind Kind) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trips = reg.Counter(metricName(kind, "breaker_trips_total"))
	b.shortCircuits = reg.Counter(metricName(kind, "breaker_short_circuits_total"))
	b.probes = reg.Counter(metricName(kind, "breaker_probes_total"))
	b.open = reg.Gauge(metricName(kind, "breaker_open"))
	b.open.Set(gaugeValue(b.state))
}

func gaugeValue(s BreakerState) float64 {
	switch s {
	case BreakerOpen:
		return 1
	case BreakerHalfOpen:
		return 0.5
	default:
		return 0
	}
}

// transition moves to the new state under b.mu.
func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	if to == BreakerOpen {
		b.trips.Inc()
		b.openedAt = b.p.Now()
	}
	if to == BreakerClosed {
		b.consecFails = 0
	}
	b.open.Set(gaugeValue(to))
}

// Allow reports whether a call may proceed. While open it returns
// false (a short circuit) until a probe comes due, at which point the
// breaker moves to half-open and admits the call as the probe. The
// caller must report the call's outcome via Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed, BreakerHalfOpen:
		return true
	default: // BreakerOpen
		if b.p.Now().Sub(b.openedAt) < breakerProbeInterval {
			b.shortCircuits.Inc()
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probes.Inc()
		return true
	}
}

// Success records a successful call: it closes a half-open breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails = 0
	case BreakerHalfOpen:
		b.transition(BreakerClosed)
	}
}

// Failure records a failed call.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails++
		if b.consecFails >= b.p.FailureThreshold {
			b.transition(BreakerOpen)
		}
	case BreakerHalfOpen:
		// The probe failed: re-trip.
		b.transition(BreakerOpen)
	}
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// WithBreaker wraps next so resolutions flow through b: short-circuited
// calls fail immediately with ErrBreakerOpen (Timing.Attempts stays 0 —
// nothing touched the wire), and every completed call feeds the state
// machine. Place it above the retry layer so one exhausted retry loop
// counts as one failure, not MaxAttempts of them.
func WithBreaker(next Resolver, b *Breaker) Resolver {
	return Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		if !b.Allow() {
			return nil, Timing{}, ErrBreakerOpen
		}
		resp, t, err := next.Resolve(ctx, q)
		if err != nil {
			b.Failure()
		} else {
			b.Success()
		}
		return resp, t, err
	})
}
