package resolver

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// stub is a scriptable transport: each Resolve consumes the next
// outcome (nil error -> NOERROR answer).
type stub struct {
	calls int
	errs  []error
}

func (s *stub) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	i := s.calls
	s.calls++
	if i < len(s.errs) && s.errs[i] != nil {
		return nil, Timing{Attempts: 1}, s.errs[i]
	}
	resp := q.Reply()
	return resp, Timing{RoundTrip: time.Millisecond, Total: time.Millisecond, Attempts: 1}, nil
}

var errWire = errors.New("wire timeout")

func TestRetrySchedule(t *testing.T) {
	// 50 ms doubling per retry, each delay capped at 2 s.
	tests := []struct {
		name string
		p    RetryPolicy
		want []time.Duration
	}{
		{
			name: "defaults",
			p:    RetryPolicy{},
			want: []time.Duration{50 * time.Millisecond, 100 * time.Millisecond},
		},
		{
			name: "doubling capped",
			p:    RetryPolicy{MaxAttempts: 9},
			want: []time.Duration{
				50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
				400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
				2 * time.Second, 2 * time.Second,
			},
		},
		{
			name: "single attempt has no retries",
			p:    RetryPolicy{MaxAttempts: 1},
			want: []time.Duration{},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := tt.p.withDefaults()
			if got := p.MaxAttempts - 1; got != len(tt.want) {
				t.Fatalf("%d retries, want %d", got, len(tt.want))
			}
			for i, want := range tt.want {
				if got := backoff(i); got != want {
					t.Errorf("backoff(%d) = %v, want %v", i, got, want)
				}
			}
		})
	}
}

// recordingSleep captures requested backoff delays without sleeping.
func recordingSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestRetrySucceedsAfterFailures(t *testing.T) {
	var delays []time.Duration
	s := &stub{errs: []error{errWire, errWire, nil}}
	m := &Metrics{}
	r := Apply(s, Policy{Retry: &RetryPolicy{MaxAttempts: 3, Sleep: recordingSleep(&delays)}, Metrics: m})
	resp, timing, err := r.Resolve(context.Background(), Query("x.a.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if resp == nil || timing.Attempts != 3 {
		t.Fatalf("got attempts=%d, want 3", timing.Attempts)
	}
	snap := m.Snapshot()
	if snap.Retries != 2 || snap.Drops != 2 || snap.Attempts != 3 || snap.Failures != 0 {
		t.Errorf("metrics = %+v, want retries=2 drops=2 attempts=3 failures=0", snap)
	}
}

func TestRetryExhaustion(t *testing.T) {
	var delays []time.Duration
	s := &stub{errs: []error{errWire, errWire, errWire}}
	m := &Metrics{}
	r := Apply(s, Policy{Retry: &RetryPolicy{MaxAttempts: 3, Sleep: recordingSleep(&delays)}, Metrics: m})
	resp, timing, err := r.Resolve(context.Background(), Query("x.a.com.", dnswire.TypeA))
	if !errors.Is(err, errWire) {
		t.Fatalf("err = %v, want %v", err, errWire)
	}
	if resp != nil {
		t.Error("resp must be nil when err is non-nil")
	}
	if timing.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", timing.Attempts)
	}
	if got := m.Snapshot().Failures; got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
}

// TestPolicyMetricsWithoutRetry: a stack counts a resolution's
// attempts and its failure once, at its entry, whether or not it
// retries.
func TestPolicyMetricsWithoutRetry(t *testing.T) {
	ctx := context.Background()
	q := Query("x.a.com.", dnswire.TypeA)
	var delays []time.Duration
	for _, tc := range []struct {
		name string
		run  func(m *Metrics)
		want Snapshot
	}{
		{"hedged and bare, no retry", func(m *Metrics) {
			ok := Apply(&stub{}, Policy{HedgeDelay: time.Hour, HedgeMax: 2, Metrics: m})
			for i := 0; i < 3; i++ {
				_, _, _ = ok.Resolve(ctx, q)
			}
			_, _, _ = Apply(&stub{errs: []error{errWire}}, Policy{Metrics: m}).Resolve(ctx, q)
		}, Snapshot{Queries: 4, Attempts: 4, Failures: 1}},
		{"retried to an answer", func(m *Metrics) {
			retry := &RetryPolicy{MaxAttempts: 3, Sleep: recordingSleep(&delays)}
			_, _, _ = Apply(&stub{errs: []error{errWire, nil}}, Policy{Retry: retry, Metrics: m}).Resolve(ctx, q)
		}, Snapshot{Queries: 1, Attempts: 2, Retries: 1, Drops: 1}},
		{"retried to exhaustion", func(m *Metrics) {
			retry := &RetryPolicy{MaxAttempts: 2, Sleep: recordingSleep(&delays)}
			_, _, _ = Apply(&stub{errs: []error{errWire, errWire}}, Policy{Retry: retry, Metrics: m}).Resolve(ctx, q)
		}, Snapshot{Queries: 1, Attempts: 2, Retries: 1, Drops: 2, Failures: 1}},
	} {
		m := &Metrics{}
		tc.run(m)
		if got := m.Snapshot(); got != tc.want {
			t.Errorf("%s: metrics = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestRetryBudgetStopsRetries(t *testing.T) {
	var delays []time.Duration
	errs := make([]error, 10)
	for i := range errs {
		errs[i] = errWire
	}
	s := &stub{errs: errs}
	r := WithRetry(s, RetryPolicy{MaxAttempts: len(errs), Sleep: recordingSleep(&delays)})
	_, _, err := r.Resolve(context.Background(), Query("x.a.com.", dnswire.TypeA))
	if !errors.Is(err, errWire) {
		t.Fatalf("err = %v, want %v", err, errWire)
	}
	// Six backoffs spend 3.15 s of the 5 s budget, the seventh is
	// clamped to the remaining 1.85 s, then the budget is gone: 8
	// attempts of the 10 allowed.
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		1850 * time.Millisecond,
	}
	if !slices.Equal(delays, want) {
		t.Errorf("delays = %v, want %v", delays, want)
	}
	if s.calls != 8 {
		t.Errorf("transport calls = %d, want 8", s.calls)
	}
}

func TestRetryContextCancelledMidBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &stub{errs: []error{errWire, errWire, errWire}}
	r := WithRetry(s, RetryPolicy{
		MaxAttempts: 3,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // the caller gives up while we are backing off
			return ctx.Err()
		},
	})
	resp, timing, err := r.Resolve(ctx, Query("x.a.com.", dnswire.TypeA))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if resp != nil {
		t.Error("resp must be nil on cancellation")
	}
	if s.calls != 1 {
		t.Errorf("transport calls = %d, want 1 (no attempt after cancel)", s.calls)
	}
	if timing.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", timing.Attempts)
	}
}

func TestRetryTakesServFailAsTheAnswer(t *testing.T) {
	// A SERVFAIL is the upstream's answer, not a transport fault: it
	// returns on the first attempt, with no backoff and no drop.
	servfail := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		resp := q.Reply()
		resp.Header.RCode = dnswire.RCodeServFail
		return resp, Timing{Attempts: 1}, nil
	})
	var delays []time.Duration
	m := &Metrics{}
	r := WithRetry(servfail, RetryPolicy{MaxAttempts: 3, Sleep: recordingSleep(&delays), Metrics: m})
	resp, timing, err := r.Resolve(context.Background(), Query("sf.a.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail || timing.Attempts != 1 || len(delays) != 0 {
		t.Errorf("RCode %v after %d attempts and %d backoffs, want SERVFAIL after 1 and 0",
			resp.Header.RCode, timing.Attempts, len(delays))
	}
	if snap := m.Snapshot(); snap.Drops != 0 || snap.Retries != 0 || snap.Failures != 0 {
		t.Errorf("metrics = %+v, want no drops, retries or failures", snap)
	}
}

func TestHedgingWinsOnSlowPrimary(t *testing.T) {
	// Primary hangs until cancelled; the hedge answers immediately.
	var n atomic.Int32
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		me := n.Add(1)
		if me == 1 {
			<-ctx.Done()
			return nil, Timing{Attempts: 1}, ctx.Err()
		}
		return q.Reply(), Timing{Attempts: 1}, nil
	})
	m := &Metrics{}
	r := WithHedgingN(next, time.Millisecond, 2, m)
	resp, timing, err := r.Resolve(context.Background(), Query("h.a.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if resp == nil {
		t.Fatal("nil response")
	}
	if timing.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (winner + in-flight loser)", timing.Attempts)
	}
	if got := m.Snapshot().Hedges; got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
}

func TestHedgingImmediateOnPrimaryFailure(t *testing.T) {
	// Primary fails fast: the hedge must fire before the hedge delay.
	s := &stub{errs: []error{errWire, nil}}
	m := &Metrics{}
	r := WithHedgingN(s, time.Hour, 2, m)
	start := time.Now()
	resp, _, err := r.Resolve(context.Background(), Query("h.a.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if resp == nil {
		t.Fatal("nil response")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("hedge waited for the timer (%v)", elapsed)
	}
	if got := m.Snapshot().Hedges; got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
}

func TestHedgingNCancelsLosersPromptly(t *testing.T) {
	// The smart racer (internal/smart) reuses this cancellation
	// machinery, so pin the contract here: when the winner returns,
	// every losing in-flight attempt is cancelled promptly and its
	// goroutine drains — no request may linger until its own timeout.
	const fanOut = 4
	var n atomic.Int32
	cancelled := make(chan struct{}, fanOut)
	done := make(chan struct{}, fanOut)
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		defer func() { done <- struct{}{} }()
		if n.Add(1) < fanOut {
			// Losers hang until cancelled; answering on their own
			// would take far longer than the test allows.
			select {
			case <-ctx.Done():
				cancelled <- struct{}{}
				return nil, Timing{Attempts: 1}, ctx.Err()
			case <-time.After(30 * time.Second):
				return nil, Timing{Attempts: 1}, errWire
			}
		}
		return q.Reply(), Timing{Attempts: 1}, nil
	})
	r := WithHedgingN(next, time.Millisecond, fanOut, nil)
	resp, timing, err := r.Resolve(context.Background(), Query("hn.a.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if resp == nil {
		t.Fatal("nil response")
	}
	if timing.Attempts != fanOut {
		t.Errorf("attempts = %d, want %d (winner + in-flight losers)", timing.Attempts, fanOut)
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < fanOut-1; i++ {
		select {
		case <-cancelled:
		case <-deadline:
			t.Fatalf("loser %d not cancelled after the winner returned", i)
		}
	}
	for i := 0; i < fanOut; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("attempt goroutine %d did not drain", i)
		}
	}
}

func TestApplyComposition(t *testing.T) {
	// Drop -> retry -> pass through the full canonical stack.
	var delays []time.Duration
	m := &Metrics{}
	r := Apply(&stub{errs: []error{errWire}}, Policy{
		Retry: &RetryPolicy{
			MaxAttempts: 3,
			Sleep:       recordingSleep(&delays),
		},
		AttemptTimeout: time.Second,
		Metrics:        m,
	})
	resp, timing, err := r.Resolve(context.Background(), Query("c.a.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if resp == nil || timing.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", timing.Attempts)
	}
	snap := m.Snapshot()
	if snap.Queries != 1 || snap.Attempts != 2 || snap.Retries != 1 || snap.Drops != 1 || snap.Failures != 0 {
		t.Errorf("metrics = %+v, want queries=1 attempts=2 retries=1 drops=1 failures=0", snap)
	}
}

func TestWithTimeoutPerAttempt(t *testing.T) {
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		<-ctx.Done()
		return nil, Timing{Attempts: 1}, ctx.Err()
	})
	r := WithTimeout(next, 5*time.Millisecond, 0)
	_, _, err := r.Resolve(context.Background(), Query("t.a.com.", dnswire.TypeA))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
