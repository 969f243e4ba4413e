package resolver

import (
	"context"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/deadline"
	"repro/internal/dnswire"
	"repro/internal/obs"
)

// Policy bundles the standard middleware stack. Apply composes it in
// the canonical order (innermost first):
//
//	transport -> per-attempt WithTimeout -> WithRetry -> WithHedgingN
//	          -> WithBreaker -> entry metrics
//	          -> WithMetrics (registry histograms) -> WithCache
//
// so each retry attempt is individually deadline-bounded and the
// registry's histograms see the end-to-end timing including backoff
// sleeps. The cache sits outermost: a hit never enters the policy
// stack, and the transport histograms below keep describing real
// resolutions only.
type Policy struct {
	// Retry, when non-nil, adds exponential-backoff retries.
	Retry *RetryPolicy
	// AttemptTimeout bounds each transport attempt.
	AttemptTimeout time.Duration
	// HedgeDelay, when positive, fires a speculative second attempt
	// after this delay (set it near the transport's p95 latency).
	HedgeDelay time.Duration
	// HedgeMax caps the total hedged attempts including the first
	// (default 2, the classic single-hedge pattern). Values above 2
	// keep launching further attempts at HedgeDelay intervals while
	// earlier ones are still unanswered. Size the DoH client's idle
	// pool to at least this fan-out (Options.MaxIdleConnsPerHost) or
	// the extra connections are discarded after each exchange.
	HedgeMax int
	// Cache, when non-nil, adds a WithCache layer outermost so answers
	// are served from the shared TTL-aware cache (internal/cache) and
	// concurrent misses collapse into one resolution.
	Cache *cache.Cache
	// Breaker, when non-nil, adds a circuit breaker above the retry
	// and timeout layers: a run of consecutive end-to-end failures
	// trips it and later calls short-circuit with ErrBreakerOpen until
	// a probe succeeds (see breaker.go for the state machine).
	Breaker *BreakerPolicy
	// Metrics, when non-nil, receives counters from every layer.
	Metrics *Metrics
	// Registry, when non-nil, adds a WithMetrics layer outermost so
	// per-phase latency histograms and query/error counters land in
	// the observability registry (internal/obs).
	Registry *obs.Registry
	// Kind names the transport in the registry's metric names
	// (resolver_<kind>_*). Empty publishes under "all".
	Kind Kind
}

// SmartOptions tunes the smart racing resolver (internal/smart): how
// races are staggered, how long a winner is remembered, and how
// background re-probing is paced. The zero value of every field means
// "use the smart package's default". Defined here (not in
// internal/smart) so every resolver-tuning surface sits in one package;
// see internal/smart for the consumer and its fixed constants (EWMA
// weight, probe timeout, table size).
type SmartOptions struct {
	// Stagger is the happy-eyeballs delay between racing candidate
	// launches (default 30ms). The presumed-fastest candidate starts
	// first; each further candidate starts Stagger later unless an
	// earlier one has already answered.
	Stagger time.Duration
	// ReRaceAfter is the winner-memory decay horizon: a remembered
	// winner older than this is dropped and the next query races again
	// (default 5m; negative disables decay).
	ReRaceAfter time.Duration
	// ProbeInterval rate-limits background re-probing of losing
	// candidates, per destination (default 15s; negative disables
	// probing).
	ProbeInterval time.Duration
	// SwitchMargin is the fraction of the winner's EWMA a loser must
	// beat for the winner to switch, in (0, 1] (default 0.9: the loser
	// must be at least 10% faster). Hysteresis against flapping.
	SwitchMargin float64
}

// Apply wraps r with the policy's middleware stack.
func Apply(r Resolver, p Policy) Resolver {
	if p.AttemptTimeout > 0 {
		r = WithTimeout(r, p.AttemptTimeout, 0)
	}
	if p.Retry != nil {
		rp := *p.Retry
		if rp.Metrics == nil {
			rp.Metrics = p.Metrics
		}
		r = WithRetry(r, rp)
	}
	if p.HedgeDelay > 0 {
		r = WithHedgingN(r, p.HedgeDelay, p.HedgeMax, p.Metrics)
	}
	if p.Breaker != nil {
		b := NewBreaker(*p.Breaker)
		if p.Registry != nil {
			b.Instrument(p.Registry, p.Kind)
		}
		r = WithBreaker(r, b)
	}
	if p.Metrics != nil {
		r = withEntryMetrics(r, p.Metrics)
	}
	if p.Registry != nil {
		r = WithMetrics(r, p.Registry, p.Kind)
	}
	if p.Cache != nil {
		r = WithCache(r, p.Cache, p.Registry, p.Kind)
	}
	return r
}

// WithTimeout bounds resolutions with deadlines. perAttempt applies to
// each call into next (place this layer below WithRetry so every
// attempt gets its own budget); overall caps the context for the whole
// stack above (place a second WithTimeout outermost for that). Either
// may be zero; with both set the tighter one is the bound, since both
// start at the same call. The bound is a deadline.Lazy: a transport
// that reads ctx.Deadline() into a socket deadline (all three do) is
// bounded without a timer, and one that waits on Done gets a real one.
//
// The Lazy comes from a pool and goes back when next returns, so next
// must keep the rule stated on Resolver: ctx is its own only until it
// returns. Apply places this layer directly over a wire transport, which
// never outlives its call.
func WithTimeout(next Resolver, perAttempt, overall time.Duration) Resolver {
	bound := perAttempt
	if bound <= 0 || overall > 0 && overall < bound {
		bound = overall
	}
	if bound <= 0 {
		return next
	}
	return Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		bounded := boundPool.Get().(*deadline.Lazy)
		bounded.Reset(ctx, time.Now().Add(bound))
		defer releaseBound(bounded)
		return next.Resolve(bounded, q)
	})
}

// boundPool holds WithTimeout's attempt bounds between calls.
var boundPool = sync.Pool{New: func() any { return new(deadline.Lazy) }}

// releaseBound ends an attempt's bound — cancelling whatever the callee
// derived from it — and returns it to the pool.
func releaseBound(c *deadline.Lazy) {
	c.Stop()
	boundPool.Put(c)
}

// The retry backoff schedule: capped exponential, with a total budget.
const (
	// retryBaseDelay is the backoff before the first retry.
	retryBaseDelay = 50 * time.Millisecond
	// retryMaxDelay caps a single backoff delay.
	retryMaxDelay = 2 * time.Second
	// retryMultiplier grows the delay between retries.
	retryMultiplier = 2
	// retryBudget caps the cumulative backoff sleep; once spent, no
	// further retries are taken.
	retryBudget = 5 * time.Second
)

// RetryPolicy parameterizes WithRetry: how many attempts a resolution
// gets. The backoff between them is fixed: 50 ms doubling per retry,
// capped at 2 s per delay and 5 s in total.
type RetryPolicy struct {
	// MaxAttempts is the total attempt count including the first
	// (default 3).
	MaxAttempts int
	// Sleep waits between attempts; tests substitute a recording fake.
	// The default honors context cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
	// Metrics, when non-nil, receives attempt/retry/drop counters.
	Metrics *Metrics
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Sleep == nil {
		p.Sleep = sleepContext
	}
	return p
}

// backoff is the delay before retry i (0-based).
func backoff(i int) time.Duration {
	d := retryBaseDelay
	for ; i > 0 && d < retryMaxDelay; i-- {
		d *= retryMultiplier
	}
	return min(d, retryMaxDelay)
}

func sleepContext(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WithRetry wraps next with the retry policy. A resolution succeeds on
// the first attempt that returns a response — any RCode, SERVFAIL
// included, is the upstream's answer; transport errors trigger capped
// exponential backoff until attempts, budget, or context run out. The
// returned Timing carries the winning attempt's phase breakdown with
// Attempts and Total covering the whole loop.
func WithRetry(next Resolver, p RetryPolicy) Resolver {
	return &retrier{next: next, p: p.withDefaults()}
}

type retrier struct {
	next Resolver
	p    RetryPolicy
}

func (r *retrier) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	start := time.Now()
	var slept time.Duration
	var attempts int
	var lastTiming Timing
	var lastErr error
	for attempt := 1; attempt <= r.p.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			lastTiming.Attempts = attempts
			lastTiming.Total = time.Since(start)
			return nil, lastTiming, err
		}
		resp, t, err := r.next.Resolve(ctx, q)
		attempts += t.AttemptCount()
		if r.p.Metrics != nil {
			r.p.Metrics.Attempts.Add(int64(t.AttemptCount()))
			if err != nil {
				r.p.Metrics.Drops.Add(1)
			}
		}
		if err == nil {
			t.Attempts = attempts
			t.Total = time.Since(start)
			return resp, t, nil
		}
		lastTiming, lastErr = t, err
		if attempt == r.p.MaxAttempts || ctx.Err() != nil {
			break
		}
		remaining := retryBudget - slept
		if remaining <= 0 {
			break
		}
		delay := min(backoff(attempt-1), remaining)
		if r.p.Metrics != nil {
			r.p.Metrics.Retries.Add(1)
		}
		if err := r.p.Sleep(ctx, delay); err != nil {
			lastTiming.Attempts = attempts
			lastTiming.Total = time.Since(start)
			return nil, lastTiming, err
		}
		slept += delay
	}
	lastTiming.Attempts = attempts
	lastTiming.Total = time.Since(start)
	if r.p.Metrics != nil {
		r.p.Metrics.Failures.Add(1)
	}
	return nil, lastTiming, lastErr
}

// WithHedgingN fires speculative further attempts when the first has
// not answered within delay (or has already failed), up to max in
// total, and returns whichever succeeds first — the tail-latency hedge
// pattern, Race over max slots of the same transport. The losing
// attempts are cancelled. max below 2 is treated as 2; metrics may be
// nil.
func WithHedgingN(next Resolver, delay time.Duration, max int, metrics *Metrics) Resolver {
	if max < 2 {
		max = 2
	}
	return Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		resp, t, _, launched, err := Race(ctx, max, delay, func(ctx context.Context, _ int) (*dnswire.Message, Timing, error) {
			return next.Resolve(ctx, q)
		})
		if metrics != nil {
			metrics.Hedges.Add(int64(launched - 1))
		}
		return resp, t, err
	})
}

// raceResult carries one slot's outcome.
type raceResult struct {
	slot int
	resp *dnswire.Message
	t    Timing
	err  error
}

// Race is the one staggered race: hedging runs it over attempts of one
// transport, internal/smart over candidate transports. Slot 0 launches
// at once; while no slot has answered, the next launches every stagger,
// or immediately when one fails outright, until all slots are in flight.
// The first success wins and cancels the rest through the context run
// is given; its slot is returned as winner. When every slot fails,
// winner is -1 and the first failure is returned; when ctx ends first,
// winner is -1 and the error is ctx's. The Timing's Attempts counts the
// slots that answered plus those still in flight, which consumed
// transport work even though their results are discarded; launched is
// the number of slots started.
func Race(ctx context.Context, slots int, stagger time.Duration,
	run func(ctx context.Context, slot int) (*dnswire.Message, Timing, error),
) (resp *dnswire.Message, t Timing, winner, launched int, err error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan raceResult, slots)
	launch := func() {
		slot := launched
		go func() {
			m, t, err := run(ctx, slot)
			results <- raceResult{slot, m, t, err}
		}()
		launched++
	}
	launch()

	timer := time.NewTimer(stagger)
	defer timer.Stop()
	// next launches the next slot and, while more remain, arms the timer
	// for the one after it.
	next := func() {
		launch()
		if launched < slots {
			timer.Reset(stagger)
		}
	}

	var answered, attempts int
	var firstFail *raceResult
	for {
		select {
		case res := <-results:
			answered++
			attempts += res.t.AttemptCount()
			if res.err == nil {
				res.t.Attempts = attempts + launched - answered
				res.t.Total = time.Since(start)
				return res.resp, res.t, res.slot, launched, nil
			}
			if firstFail == nil {
				firstFail = &res
			}
			if launched < slots {
				// A slot failed outright before the stagger timer: launch
				// the next immediately rather than waiting.
				timer.Stop()
				next()
				continue
			}
			if answered == launched {
				firstFail.t.Attempts = attempts
				firstFail.t.Total = time.Since(start)
				return nil, firstFail.t, -1, launched, firstFail.err
			}
		case <-timer.C:
			if launched < slots {
				next()
			}
		case <-ctx.Done():
			return nil, Timing{Attempts: attempts, Total: time.Since(start)}, -1, launched, ctx.Err()
		}
	}
}

// withEntryMetrics counts Resolve calls entering the stack (failures
// are counted by the retry layer, which sees the final outcome).
func withEntryMetrics(next Resolver, m *Metrics) Resolver {
	return Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		m.Queries.Add(1)
		return next.Resolve(ctx, q)
	})
}
