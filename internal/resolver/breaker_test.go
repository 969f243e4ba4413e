package resolver

import (
	"context"
	"errors"
	"reflect"
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

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	b := NewBreaker(BreakerPolicy{FailureThreshold: 3, ProbeEvery: 100})
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
	if got := b.Snapshot().Trips; got != 1 {
		t.Errorf("trips = %d, want 1", got)
	}
}

func TestBreakerCountBasedProbing(t *testing.T) {
	b := NewBreaker(BreakerPolicy{FailureThreshold: 2, ProbeEvery: 3})
	trip(b, 2)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v", b.State())
	}
	// Two short circuits, then the third call is admitted as a probe.
	if b.Allow() || b.Allow() {
		t.Fatal("open breaker admitted a call before the probe was due")
	}
	if !b.Allow() {
		t.Fatal("probe not admitted on the ProbeEvery-th call")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v during probe", b.State())
	}
	// A failed probe re-trips; the next probe window starts over.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after failed probe", b.State())
	}
	if b.Allow() || b.Allow() {
		t.Fatal("re-opened breaker admitted a call early")
	}
	if !b.Allow() {
		t.Fatal("second probe not admitted")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after successful probe", b.State())
	}
	snap := b.Snapshot()
	if snap.Trips != 2 || snap.Probes != 2 || snap.ShortCircuits != 4 {
		t.Errorf("snapshot = %+v, want 2 trips, 2 probes, 4 short circuits", snap)
	}
}

func TestBreakerTimeBasedProbing(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerPolicy{
		FailureThreshold: 1,
		ProbeInterval:    10 * time.Second,
		Now:              func() time.Time { return now },
	})
	trip(b, 1)
	if b.Allow() {
		t.Fatal("admitted before the probe interval elapsed")
	}
	now = now.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted after the interval")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v", b.State())
	}
}

func TestBreakerSuccessesToClose(t *testing.T) {
	b := NewBreaker(BreakerPolicy{FailureThreshold: 1, ProbeEvery: 1, SuccessesToClose: 2})
	trip(b, 1)
	if !b.Allow() { // probe 1
		t.Fatal("probe not admitted")
	}
	b.Success()
	if b.State() != BreakerHalfOpen {
		t.Fatalf("closed after 1 of 2 required successes")
	}
	if !b.Allow() { // half-open admits
		t.Fatal("half-open rejected")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after 2 successes", b.State())
	}
}

func TestWithBreakerMiddleware(t *testing.T) {
	boom := errors.New("dead transport")
	var calls int
	dead := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		calls++
		return nil, Timing{Attempts: 1}, boom
	})
	b := NewBreaker(BreakerPolicy{FailureThreshold: 2, ProbeEvery: 100})
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
		Breaker:  &BreakerPolicy{FailureThreshold: 2, ProbeEvery: 1000},
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

// TestBreakerSnapshotIsItsRegistry: an instrumented breaker's Snapshot
// reads the registry's counters, each under its documented name.
func TestBreakerSnapshotIsItsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBreaker(BreakerPolicy{FailureThreshold: 2, ProbeEvery: 3})
	b.Instrument(reg, DoT)
	for i := 0; i < 20; i++ { // trips, short circuits, failed probes
		if b.Allow() {
			b.Failure()
		}
	}
	snap := b.Snapshot()
	want := map[string]int64{
		"resolver_dot_breaker_trips_total":          snap.Trips,
		"resolver_dot_breaker_short_circuits_total": snap.ShortCircuits,
		"resolver_dot_breaker_probes_total":         snap.Probes,
	}
	got := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	if !reflect.DeepEqual(got, want) || snap.Trips < 2 || snap.ShortCircuits == 0 || snap.Probes == 0 {
		t.Errorf("registry %v, Snapshot %+v", got, snap)
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
