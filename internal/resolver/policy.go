package resolver

import (
	"context"
	"math"
	"math/rand"
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
//	transport -> WithFaults -> per-attempt WithTimeout -> WithRetry
//	          -> WithHedgingN -> overall WithTimeout -> WithBreaker
//	          -> entry metrics -> WithMetrics (registry histograms)
//	          -> WithCache
//
// so each retry attempt is individually deadline-bounded, the retry
// loop as a whole respects the overall deadline, injected faults look
// to the policy layers exactly like wire faults, and the registry's
// histograms see the end-to-end timing including backoff sleeps. The
// cache sits outermost: a hit never enters the policy stack, and the
// transport histograms below keep describing real resolutions only.
type Policy struct {
	// Retry, when non-nil, adds exponential-backoff retries.
	Retry *RetryPolicy
	// AttemptTimeout bounds each transport attempt.
	AttemptTimeout time.Duration
	// OverallTimeout bounds the whole resolution including backoff.
	OverallTimeout time.Duration
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
	// Faults, when non-nil, injects deterministic faults below every
	// other layer (tests).
	Faults *FaultConfig
	// Metrics, when non-nil, receives counters from every layer.
	Metrics *Metrics
	// Registry, when non-nil, adds a WithMetrics layer outermost so
	// per-phase latency histograms and query/error counters land in
	// the observability registry (internal/obs).
	Registry *obs.Registry
	// Kind names the transport in the registry's metric names
	// (resolver_<kind>_*). Empty publishes under "all".
	Kind Kind
	// Smart tunes the composite racing resolver (internal/smart) when
	// this policy is used to build one. Apply ignores it — the smart
	// layer wraps N per-transport stacks, so it cannot be composed from
	// inside a single stack; smart.New consumes these knobs instead.
	// Carrying them here keeps every resolver-tuning surface (flags,
	// configs) on one struct.
	Smart *SmartOptions
}

// SmartOptions tunes the smart racing resolver (internal/smart): how
// races are staggered, how winner memory is scored and decays, and how
// background re-probing is paced. The zero value of every field means
// "use the smart package's default". Defined here (not in
// internal/smart) so Policy can carry the knobs without an import
// cycle; see internal/smart for the consumer.
type SmartOptions struct {
	// Stagger is the happy-eyeballs delay between racing candidate
	// launches (default 30ms). The presumed-fastest candidate starts
	// first; each further candidate starts Stagger later unless an
	// earlier one has already answered.
	Stagger time.Duration
	// Alpha is the EWMA weight of a new latency sample in a
	// candidate's per-destination score, in (0, 1] (default 0.3).
	Alpha float64
	// ReRaceAfter is the winner-memory decay horizon: a remembered
	// winner older than this is dropped and the next query races again
	// (default 5m; negative disables decay).
	ReRaceAfter time.Duration
	// ProbeInterval rate-limits background re-probing of losing
	// candidates, per destination (default 15s; negative disables
	// probing).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each background probe (default 5s).
	ProbeTimeout time.Duration
	// SwitchMargin is the fraction of the winner's EWMA a loser must
	// beat for the winner to switch, in (0, 1] (default 0.9: the loser
	// must be at least 10% faster). Hysteresis against flapping.
	SwitchMargin float64
	// Shards is the winner-table shard count, rounded up to a power of
	// two (default 16).
	Shards int
	// MaxDestinations caps remembered destinations across the table
	// (default 4096). Beyond the cap, new destinations still resolve —
	// every query races — but are not remembered.
	MaxDestinations int
}

// Apply wraps r with the policy's middleware stack.
func Apply(r Resolver, p Policy) Resolver {
	if p.Faults != nil {
		r = WithFaults(r, *p.Faults)
	}
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
		max := p.HedgeMax
		if max < 2 {
			max = 2
		}
		r = WithHedgingN(r, p.HedgeDelay, max, p.Metrics)
	}
	if p.OverallTimeout > 0 {
		r = WithTimeout(r, 0, p.OverallTimeout)
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
func WithTimeout(next Resolver, perAttempt, overall time.Duration) Resolver {
	bound := perAttempt
	if bound <= 0 || overall > 0 && overall < bound {
		bound = overall
	}
	if bound <= 0 {
		return next
	}
	return Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		bounded := deadline.New(ctx, bound)
		defer bounded.Stop()
		return next.Resolve(bounded, q)
	})
}

// RetryPolicy parameterizes WithRetry: capped exponential backoff with
// seeded (hence reproducible) jitter and a total backoff budget.
type RetryPolicy struct {
	// MaxAttempts is the total attempt count including the first
	// (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff delay (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the delay between retries (default 2).
	Multiplier float64
	// Jitter is the fraction of symmetric randomization applied to
	// each delay: d' = d * (1 + Jitter*u), u uniform in [-1, 1). Zero
	// disables jitter.
	Jitter float64
	// Budget caps the cumulative backoff sleep; once spent, no further
	// retries are taken (default 5s; negative means unlimited).
	Budget time.Duration
	// RetryServFail also retries responses whose RCode is SERVFAIL
	// (the transport succeeded but the upstream did not).
	RetryServFail bool
	// Seed drives the jitter stream, making schedules reproducible.
	Seed int64
	// Sleep waits between attempts; tests substitute a recording fake.
	// The default honors context cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when non-nil, observes each retry decision.
	OnRetry func(attempt int, delay time.Duration, cause error)
	// Metrics, when non-nil, receives attempt/retry/drop counters.
	Metrics *Metrics
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Budget == 0 {
		p.Budget = 5 * time.Second
	}
	if p.Sleep == nil {
		p.Sleep = sleepContext
	}
	return p
}

// baseDelay is the pre-jitter delay before retry i (0-based).
func (p RetryPolicy) baseDelay(i int) time.Duration {
	d := float64(p.BaseDelay) * math.Pow(p.Multiplier, float64(i))
	if max := float64(p.MaxDelay); d > max {
		d = max
	}
	return time.Duration(d)
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
// the first attempt that returns a usable response; transport errors
// (and, optionally, SERVFAIL responses) trigger capped exponential
// backoff until attempts, budget, or context run out. The returned
// Timing carries the winning attempt's phase breakdown with Attempts
// and Total covering the whole loop.
func WithRetry(next Resolver, p RetryPolicy) Resolver {
	p = p.withDefaults()
	return &retrier{next: next, p: p, rng: rand.New(rand.NewSource(p.Seed))}
}

type retrier struct {
	next Resolver
	p    RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand
}

// jitter applies the policy's symmetric jitter to d from the seeded
// stream.
func (r *retrier) jitter(d time.Duration) time.Duration {
	if r.p.Jitter <= 0 {
		return d
	}
	r.mu.Lock()
	u := 2*r.rng.Float64() - 1
	r.mu.Unlock()
	j := time.Duration(float64(d) * (1 + r.p.Jitter*u))
	if j < 0 {
		j = 0
	}
	return j
}

// retryable reports whether the attempt outcome warrants another try,
// returning the cause to report.
func (r *retrier) retryable(resp *dnswire.Message, err error) (error, bool) {
	if err != nil {
		return err, true
	}
	if r.p.RetryServFail && resp.Header.RCode == dnswire.RCodeServFail {
		return errServFail, true
	}
	return nil, false
}

// errServFail is the retry cause reported for SERVFAIL responses.
var errServFail = &rcodeError{dnswire.RCodeServFail}

type rcodeError struct{ rcode dnswire.RCode }

func (e *rcodeError) Error() string { return "resolver: upstream answered " + e.rcode.String() }

func (r *retrier) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	start := time.Now()
	var slept time.Duration
	var attempts int
	var lastResp *dnswire.Message
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
		cause, again := r.retryable(resp, err)
		if !again {
			t.Attempts = attempts
			t.Total = time.Since(start)
			return resp, t, nil
		}
		lastResp, lastTiming, lastErr = resp, t, err
		if attempt == r.p.MaxAttempts || ctx.Err() != nil {
			break
		}
		delay := r.jitter(r.p.baseDelay(attempt - 1))
		if r.p.Budget >= 0 {
			remaining := r.p.Budget - slept
			if remaining <= 0 {
				break
			}
			if delay > remaining {
				delay = remaining
			}
		}
		if r.p.OnRetry != nil {
			r.p.OnRetry(attempt, delay, cause)
		}
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
	if lastErr != nil {
		if r.p.Metrics != nil {
			r.p.Metrics.Failures.Add(1)
		}
		return nil, lastTiming, lastErr
	}
	// Retries exhausted on SERVFAIL responses: surface the response
	// and let the caller inspect the RCode.
	return lastResp, lastTiming, nil
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
