package resolver

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// Circuit breaker: the paper's campaign ran for weeks against
// providers and countries where a transport could be entirely dead
// (port-853 filtering, DoH blocked nationally, a churned exit). Without
// failure isolation every configured run against a dead provider burns
// its full timeout budget. The breaker trips per target after a run of
// consecutive failures, short-circuits further attempts, and probes
// periodically so a recovered target closes the circuit again.
//
// State machine:
//
//	Closed ──FailureThreshold consecutive failures──▶ Open
//	Open ──probe due (ProbeEvery calls or ProbeInterval)──▶ HalfOpen
//	HalfOpen ──SuccessesToClose consecutive successes──▶ Closed
//	HalfOpen ──any failure──▶ Open (a re-trip)
//
// Two probe schedules are supported: ProbeInterval is wall-clock (the
// live-transport middleware default), ProbeEvery is call-count based —
// fully deterministic, which is what the simulated campaign needs to
// stay a pure function of its seed. When both are set, whichever
// comes due first admits the probe.

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

// BreakerPolicy parameterizes a Breaker.
type BreakerPolicy struct {
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker (default 5).
	FailureThreshold int
	// ProbeInterval admits a half-open probe this long after the trip
	// (wall-clock; default 30s when ProbeEvery is unset).
	ProbeInterval time.Duration
	// ProbeEvery, when positive, admits every Nth short-circuited call
	// as a half-open probe instead of using wall-clock time — the
	// deterministic schedule the simulated campaign uses.
	ProbeEvery int
	// SuccessesToClose is the consecutive probe successes needed to
	// close a half-open breaker (default 1).
	SuccessesToClose int
	// Now is the clock (default time.Now; tests inject a fake).
	Now func() time.Time
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = 5
	}
	if p.SuccessesToClose <= 0 {
		p.SuccessesToClose = 1
	}
	if p.ProbeEvery <= 0 && p.ProbeInterval <= 0 {
		p.ProbeInterval = 30 * time.Second
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// BreakerSnapshot is a point-in-time view of a breaker's counters.
type BreakerSnapshot struct {
	// State is the current position.
	State BreakerState
	// Trips counts Closed/HalfOpen -> Open transitions.
	Trips int64
	// ShortCircuits counts calls rejected while open.
	ShortCircuits int64
	// Probes counts half-open probe admissions.
	Probes int64
}

// Breaker is the failure-isolation state machine. Use it directly
// (Allow/Success/Failure) around any operation — the campaign wraps
// each provider×country measurement loop this way — or as a Resolver
// middleware via WithBreaker. Safe for concurrent use.
type Breaker struct {
	p BreakerPolicy

	mu            sync.Mutex
	state         BreakerState
	consecFails   int
	probeSuccess  int
	openedAt      time.Time
	skipsSinceUp  int // short circuits since the breaker last opened
	trips         int64
	shortCircuits int64
	probes        int64

	instr *breakerInstruments
}

// breakerInstruments holds the obs registry handles for an
// instrumented breaker.
type breakerInstruments struct {
	trips, shortCircuits, probes *obs.Counter
	open                         *obs.Gauge
}

// NewBreaker constructs a closed breaker.
func NewBreaker(p BreakerPolicy) *Breaker {
	return &Breaker{p: p.withDefaults()}
}

// Instrument attaches the breaker to reg under
// resolver_<kind>_breaker_* names: _trips_total, _short_circuits_total
// and _probes_total counters plus an _open gauge (1 open, 0.5
// half-open, 0 closed). Call before the breaker is shared.
func (b *Breaker) Instrument(reg *obs.Registry, kind Kind) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.instr = &breakerInstruments{
		trips:         reg.Counter(metricName(kind, "breaker_trips_total")),
		shortCircuits: reg.Counter(metricName(kind, "breaker_short_circuits_total")),
		probes:        reg.Counter(metricName(kind, "breaker_probes_total")),
		open:          reg.Gauge(metricName(kind, "breaker_open")),
	}
	b.instr.open.Set(gaugeValue(b.state))
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
		b.trips++
		b.openedAt = b.p.Now()
		b.skipsSinceUp = 0
		if b.instr != nil {
			b.instr.trips.Inc()
		}
	}
	if to == BreakerHalfOpen {
		b.probeSuccess = 0
	}
	if to == BreakerClosed {
		b.consecFails = 0
	}
	if b.instr != nil {
		b.instr.open.Set(gaugeValue(to))
	}
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
		b.skipsSinceUp++
		due := false
		if b.p.ProbeEvery > 0 && b.skipsSinceUp >= b.p.ProbeEvery {
			due = true
		}
		if b.p.ProbeInterval > 0 && b.p.Now().Sub(b.openedAt) >= b.p.ProbeInterval {
			due = true
		}
		if !due {
			b.shortCircuits++
			if b.instr != nil {
				b.instr.shortCircuits.Inc()
			}
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probes++
		if b.instr != nil {
			b.instr.probes.Inc()
		}
		return true
	}
}

// Success records a successful call.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails = 0
	case BreakerHalfOpen:
		b.probeSuccess++
		if b.probeSuccess >= b.p.SuccessesToClose {
			b.transition(BreakerClosed)
		}
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

// Snapshot returns the breaker's counters.
func (b *Breaker) Snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:         b.state,
		Trips:         b.trips,
		ShortCircuits: b.shortCircuits,
		Probes:        b.probes,
	}
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
