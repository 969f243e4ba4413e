package resolver

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// trip drives n failures into b.
func trip(b *Breaker, n int) {
	for i := 0; i < n; i++ {
		if b.Allow() {
			b.Failure()
		}
	}
}

// frozen is a clock that never moves: a tripped breaker on it stays
// open.
func frozen() time.Time { return time.Unix(0, 0) }

// counters reads a breaker's counters from the registry it was
// instrumented in, keyed by name.
func counters(reg *obs.Registry) map[string]int64 {
	got := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	return got
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBreaker(BreakerPolicy{FailureThreshold: 3, Now: frozen})
	b.Instrument(reg, DoH)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v before threshold", b.State())
	}
	// A success resets the consecutive count.
	b.Allow()
	b.Success()
	trip(b, 2)
	if b.State() != BreakerClosed {
		t.Fatal("breaker tripped on non-consecutive failures")
	}
	trip(b, 1)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after 3 consecutive failures", b.State())
	}
	if got := counters(reg)["resolver_doh_breaker_trips_total"]; got != 1 {
		t.Errorf("trips = %d, want 1", got)
	}
}

func TestBreakerTimeBasedProbing(t *testing.T) {
	reg := obs.NewRegistry()
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerPolicy{
		FailureThreshold: 1,
		Now:              func() time.Time { return now },
	})
	b.Instrument(reg, DoT)
	trip(b, 1)
	if b.Allow() {
		t.Fatal("admitted before the probe interval elapsed")
	}
	now = now.Add(breakerProbeInterval + time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted after the interval")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v", b.State())
	}
	// A failed probe re-trips, and the interval runs from the re-trip.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after failed probe", b.State())
	}
	now = now.Add(breakerProbeInterval - time.Second)
	if b.Allow() || b.Allow() {
		t.Fatal("re-opened breaker admitted a call early")
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("second probe not admitted")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after successful probe", b.State())
	}
	got := counters(reg)
	if got["resolver_dot_breaker_trips_total"] != 2 || got["resolver_dot_breaker_probes_total"] != 2 ||
		got["resolver_dot_breaker_short_circuits_total"] != 3 {
		t.Errorf("counters = %v, want 2 trips, 2 probes, 3 short circuits", got)
	}
}

func TestWithBreakerMiddleware(t *testing.T) {
	boom := errors.New("dead transport")
	var calls int
	dead := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		calls++
		return nil, Timing{Attempts: 1}, boom
	})
	b := NewBreaker(BreakerPolicy{FailureThreshold: 2, Now: frozen})
	r := WithBreaker(dead, b)
	q := Query(dnswire.NewName("x.a.com."), dnswire.TypeA)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, _, err := r.Resolve(ctx, q); !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	// Tripped: the transport must not be touched again.
	for i := 0; i < 5; i++ {
		if _, _, err := r.Resolve(ctx, q); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("short circuit %d: err = %v", i, err)
		}
	}
	if calls != 2 {
		t.Errorf("transport saw %d calls, want 2 (breaker must shield it)", calls)
	}
}

func TestApplyWithBreakerAndRegistry(t *testing.T) {
	boom := errors.New("down")
	dead := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		return nil, Timing{Attempts: 1}, boom
	})
	reg := obs.NewRegistry()
	r := Apply(dead, Policy{
		Breaker:  &BreakerPolicy{FailureThreshold: 2, Now: frozen},
		Registry: reg,
		Kind:     DoH,
	})
	q := Query(dnswire.NewName("x.a.com."), dnswire.TypeA)
	for i := 0; i < 5; i++ {
		r.Resolve(context.Background(), q)
	}
	snap := reg.Snapshot()
	counter := func(name string) int64 {
		t.Helper()
		for _, c := range snap.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("counter %q missing", name)
		return 0
	}
	gauge := func(name string) float64 {
		t.Helper()
		for _, g := range snap.Gauges {
			if g.Name == name {
				return g.Value
			}
		}
		t.Fatalf("gauge %q missing", name)
		return 0
	}
	if got := counter("resolver_doh_breaker_trips_total"); got != 1 {
		t.Errorf("trips = %d, want 1", got)
	}
	if got := counter("resolver_doh_breaker_short_circuits_total"); got != 3 {
		t.Errorf("short circuits = %d, want 3", got)
	}
	if got := gauge("resolver_doh_breaker_open"); got != 1 {
		t.Errorf("breaker_open gauge = %g, want 1", got)
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}
