package recursive

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
)

// TestResolverServesStaleAcrossUpstreamOutage: with a StaleTTL'd
// cache, a recursor whose upstream dies keeps answering expired
// entries (capped TTL, RA set) instead of SERVFAILing, and recovers
// fresh once the upstream returns.
func TestResolverServesStaleAcrossUpstreamOutage(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(9000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	dead := atomic.Bool{}
	up := UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if dead.Load() {
			return nil, errors.New("authoritative down")
		}
		return answer(q.Questions[0].Name, 60), nil
	})
	r := New(cache.New(cache.Config{
		Clock:    clock,
		StaleTTL: 10 * time.Minute,
	}))
	r.SetDefault(up)

	q := dnswire.NewQuery(7, "outage.example.", dnswire.TypeA)
	q.Header.RecursionDesired = true
	if _, err := r.Resolve(context.Background(), q); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	dead.Store(true)
	advance(61 * time.Second)
	resp, err := r.Resolve(context.Background(), q)
	if err != nil {
		t.Fatalf("stale-window resolve errored: %v", err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].TTL > 30 {
		t.Errorf("stale answer TTL not capped: %+v", resp.Answers)
	}
	if !resp.Header.RecursionAvailable || resp.Header.ID != 7 {
		t.Errorf("stale header not stamped: %+v", resp.Header)
	}
	r.Cache().Wait()
	if r.Cache().Stats().RefreshFails == 0 {
		t.Error("outage refresh attempt not recorded")
	}

	advance(11 * time.Minute)
	if _, err := r.Resolve(context.Background(), q); err == nil {
		t.Error("resolve past StaleTTL should fail honestly")
	}

	dead.Store(false)
	resp, err = r.Resolve(context.Background(), q)
	if err != nil || resp.Answers[0].TTL != 60 {
		t.Fatalf("recovery resolve: resp=%+v err=%v", resp, err)
	}
}

// BenchmarkResolverHitParallel hammers the recursor cache-hit path
// from every P on a small hot set — the satellite-1 contention probe.
// Before the cache's read-lock hit path (PR 7) every hit serialized on
// a per-shard exclusive mutex; now hits share the read lock and record
// recency/popularity in per-entry atomics, so throughput scales with
// parallelism instead of flatlining.
func BenchmarkResolverHitParallel(b *testing.B) {
	r := New(nil)
	r.SetDefault(UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return answer(q.Questions[0].Name, 3600), nil
	}))
	names := make([]dnswire.Name, 8)
	for i := range names {
		names[i] = dnswire.NewName(fmt.Sprintf("hot%d.example.", i))
		q := dnswire.NewQuery(uint16(i), names[i], dnswire.TypeA)
		if _, err := r.Resolve(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		q := dnswire.NewQuery(1, names[0], dnswire.TypeA)
		for pb.Next() {
			q.Questions[0].Name = names[i&7]
			if _, err := r.Resolve(ctx, q); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkResolverHitParallelHotKey is the single-key worst case:
// every P hammers one name.
func BenchmarkResolverHitParallelHotKey(b *testing.B) {
	r := New(nil)
	r.SetDefault(UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return answer(q.Questions[0].Name, 3600), nil
	}))
	name := dnswire.Name("hot.example.")
	if _, err := r.Resolve(context.Background(), dnswire.NewQuery(1, name, dnswire.TypeA)); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		q := dnswire.NewQuery(1, name, dnswire.TypeA)
		for pb.Next() {
			if _, err := r.Resolve(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
