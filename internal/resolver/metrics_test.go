package resolver

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// fixed is an allocation-free transport returning a prebuilt response
// with a fixed timing, for isolating the middleware's own allocations.
type fixed struct {
	resp *dnswire.Message
	t    Timing
	err  error
}

func (f *fixed) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	return f.resp, f.t, f.err
}

// lossy fails a seeded share of calls with errWire and adds slow to the
// timing of another share — a reproducible lossy path for the
// determinism tests. Not safe for concurrent use.
type lossy struct {
	next           Resolver
	rng            *rand.Rand
	drop, slowProb float64
	slow           time.Duration
	drops          int
}

func newLossy(next Resolver, seed int64, drop, slowProb float64, slow time.Duration) *lossy {
	return &lossy{next: next, rng: rand.New(rand.NewSource(seed)), drop: drop, slowProb: slowProb, slow: slow}
}

func (l *lossy) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	switch u := l.rng.Float64(); {
	case u < l.drop:
		l.drops++
		return nil, Timing{Attempts: 1}, errWire
	case u < l.drop+l.slowProb:
		resp, t, err := l.next.Resolve(ctx, q)
		t.RoundTrip += l.slow
		t.Total += l.slow
		return resp, t, err
	}
	return l.next.Resolve(ctx, q)
}

func testQuery() *dnswire.Message {
	return Query(dnswire.NewName("m.a.com."), dnswire.TypeA)
}

func TestWithMetricsRecords(t *testing.T) {
	reg := obs.NewRegistry()
	q := testQuery()
	fresh := &fixed{resp: q.Reply(), t: Timing{
		DNSLookup: 2 * time.Millisecond, Connect: 3 * time.Millisecond,
		TLSHandshake: 4 * time.Millisecond, RoundTrip: 5 * time.Millisecond,
		Total: 14 * time.Millisecond, Attempts: 1,
	}}
	r := WithMetrics(fresh, reg, DoH)
	for i := 0; i < 3; i++ {
		if _, _, err := r.Resolve(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	// A reused-connection exchange: setup histograms must not see it.
	fresh.t = Timing{RoundTrip: time.Millisecond, Total: time.Millisecond, Reused: true, Attempts: 1}
	if _, _, err := r.Resolve(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("resolver_doh_queries_total").Value(); got != 4 {
		t.Errorf("queries_total = %d, want 4", got)
	}
	if got := reg.Counter("resolver_doh_attempts_total").Value(); got != 4 {
		t.Errorf("attempts_total = %d, want 4", got)
	}
	if got := reg.Counter("resolver_doh_reused_total").Value(); got != 1 {
		t.Errorf("reused_total = %d, want 1", got)
	}
	if got := reg.Histogram("resolver_doh_tls_handshake_ms", nil).Count(); got != 3 {
		t.Errorf("tls_handshake histogram count = %d, want 3 (reused excluded)", got)
	}
	if got := reg.Histogram("resolver_doh_total_ms", nil).Count(); got != 4 {
		t.Errorf("total histogram count = %d, want 4", got)
	}
}

func TestWithMetricsCountsErrors(t *testing.T) {
	reg := obs.NewRegistry()
	r := WithMetrics(&fixed{err: errWire, t: Timing{Attempts: 1}}, reg, Do53)
	_, _, err := r.Resolve(context.Background(), testQuery())
	if err == nil {
		t.Fatal("expected error")
	}
	if got := reg.Counter("resolver_do53_errors_total").Value(); got != 1 {
		t.Errorf("errors_total = %d, want 1", got)
	}
	if got := reg.Histogram("resolver_do53_total_ms", nil).Count(); got != 0 {
		t.Errorf("failed resolutions must not pollute latency histograms, got %d", got)
	}
}

// TestWithMetricsDeterministicSnapshot: under a fixed seed, resolutions
// over a lossy path plus the published retry counters produce an
// identical registry snapshot on every run. (Histograms are fed by
// deterministic timing sources — the seeded path and a fixed
// transport; a wall-clock layer like WithRetry's Total would be
// deterministic only in virtual time.)
func TestWithMetricsDeterministicSnapshot(t *testing.T) {
	run := func() (obs.Snapshot, int) {
		reg := obs.NewRegistry()
		q := testQuery()

		// Histogram path: metrics over a seeded lossy path over a
		// fixed-timing transport.
		base := &fixed{resp: q.Reply(), t: Timing{
			DNSLookup: 2 * time.Millisecond, Connect: 3 * time.Millisecond,
			TLSHandshake: 4 * time.Millisecond, RoundTrip: 5 * time.Millisecond,
			Total: 14 * time.Millisecond, Attempts: 1,
		}}
		path := newLossy(base, 7, 0.3, 0.2, 40*time.Millisecond)
		mr := WithMetrics(path, reg, DoH)
		for i := 0; i < 40; i++ {
			_, _, _ = mr.Resolve(context.Background(), q)
		}

		// Retry/hedge counters: a lossy retry stack whose integer
		// counters are schedule-independent; published as gauges.
		metrics := &Metrics{}
		var delays []time.Duration
		retry := WithRetry(newLossy(&stub{}, 3, 0.4, 0, 0),
			RetryPolicy{MaxAttempts: 3, Sleep: recordingSleep(&delays), Metrics: metrics})
		for i := 0; i < 20; i++ {
			_, _, _ = retry.Resolve(context.Background(), q)
		}
		PublishPolicyMetrics(reg, Do53, metrics)
		return reg.Snapshot(), path.drops
	}
	a, drops := run()
	b, dropsAgain := run()
	if !reflect.DeepEqual(a, b) || drops != dropsAgain {
		t.Fatalf("snapshots differ across same-seed runs:\n%+v %d\nvs\n%+v %d", a, drops, b, dropsAgain)
	}
	// The drops and retries must actually have fired for this to test
	// anything.
	var retries float64
	for _, g := range a.Gauges {
		if g.Name == "resolver_do53_retries" {
			retries = g.Value
		}
	}
	if drops == 0 || retries == 0 {
		t.Fatalf("drops=%d retries=%g; determinism test is vacuous", drops, retries)
	}
}

// TestWithMetricsAllocationFree is the ISSUE 2 acceptance check: the
// metrics middleware adds zero allocations per observation.
func TestWithMetricsAllocationFree(t *testing.T) {
	reg := obs.NewRegistry()
	q := testQuery()
	base := &fixed{resp: q.Reply(), t: Timing{
		DNSLookup: time.Millisecond, Connect: time.Millisecond,
		TLSHandshake: time.Millisecond, RoundTrip: time.Millisecond,
		Total: 4 * time.Millisecond, Attempts: 1,
	}}
	ctx := context.Background()

	baseline := testing.AllocsPerRun(1000, func() { _, _, _ = base.Resolve(ctx, q) })
	wrapped := WithMetrics(base, reg, DoH)
	withMetrics := testing.AllocsPerRun(1000, func() { _, _, _ = wrapped.Resolve(ctx, q) })
	if delta := withMetrics - baseline; delta != 0 {
		t.Fatalf("WithMetrics adds %.1f allocations per resolution, want 0", delta)
	}
}

func BenchmarkObsWithMetrics(b *testing.B) {
	reg := obs.NewRegistry()
	q := testQuery()
	base := &fixed{resp: q.Reply(), t: Timing{
		RoundTrip: time.Millisecond, Total: time.Millisecond, Attempts: 1,
	}}
	r := WithMetrics(base, reg, DoH)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = r.Resolve(ctx, q)
	}
}

// TestWithMetricsConcurrent exercises the registry-backed middleware
// under concurrent resolvers, mirroring campaign worker concurrency;
// run under -race this is the resolver half of the ISSUE 2 race gate.
func TestWithMetricsConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	q := testQuery()
	r := WithMetrics(&fixed{resp: q.Reply(), t: Timing{
		RoundTrip: time.Millisecond, Total: time.Millisecond, Attempts: 1,
	}}, reg, DoT)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_, _, _ = r.Resolve(context.Background(), q)
				if i%100 == 0 {
					_ = reg.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("resolver_dot_queries_total").Value(); got != 4000 {
		t.Fatalf("queries_total = %d, want 4000", got)
	}
}
