package cache

import (
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// The warm-hit path must stay allocation-free like the obs hot path: a
// cache that allocates per hit would perturb the warm-path latencies
// the §5 cache-hit experiments measure (ISSUE 4 acceptance criterion).

// Each gate runs on a bare cache and on one instrumented into a
// registry, as bench/ and dohsrv run it.

func TestWarmHitAllocationFree(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		c, _ := newTestCache(0)
		warmHitAllocs(t, c, instrumented)
	}
}

// TestWarmHitAllocationFreeWithStale pins the same 0-alloc guarantee
// with serve-stale and prefetch enabled: the fresh warm-hit fast path
// must not pay for the stale machinery. (Stale hits themselves copy
// and may allocate — that is by design.)
func TestWarmHitAllocationFreeWithStale(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		clk := &virtualClock{now: time.Unix(1000, 0)}
		c := New(Config{
			Clock:             clk.Now,
			StaleTTL:          time.Hour,
			PrefetchThreshold: 10 * time.Second,
		})
		warmHitAllocs(t, c, instrumented)
	}
}

// warmHitAllocs fails t if a warm Get on c allocates.
func warmHitAllocs(t *testing.T, c *Cache, instrumented bool) {
	t.Helper()
	if instrumented {
		c.Instrument(obs.NewRegistry(), "cache")
	}
	name := dnswire.Name("warm.example.")
	c.Put(name, dnswire.TypeA, answer(name, 300))
	if n := testing.AllocsPerRun(1000, func() {
		if c.Get(name, dnswire.TypeA) == nil {
			t.Fatal("warm entry missed")
		}
	}); n != 0 {
		t.Errorf("warm Get (instrumented %v) allocates %.1f per op, want 0", instrumented, n)
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c, _ := newTestCache(0)
	name := dnswire.Name("warm.example.")
	c.Put(name, dnswire.TypeA, answer(name, 300))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Get(name, dnswire.TypeA) == nil {
			b.Fatal("warm entry missed")
		}
	}
}

func BenchmarkCacheHitParallel(b *testing.B) {
	c, _ := newTestCache(0)
	names := make([]dnswire.Name, 64)
	for i := range names {
		names[i] = dnswire.NewName(string(rune('a'+i%26)) + "p.example.")
	}
	for _, n := range names {
		c.Put(n, dnswire.TypeA, answer(n, 300))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(names[i&63], dnswire.TypeA)
			i++
		}
	})
}

// BenchmarkCacheHitParallelHotKey hammers a single key from every P:
// the worst case for lock contention. With the RW-lock + atomic
// recency path, hits share the read lock instead of serializing on an
// exclusive mutex per hit.
func BenchmarkCacheHitParallelHotKey(b *testing.B) {
	c, _ := newTestCache(0)
	name := dnswire.Name("hot.example.")
	c.Put(name, dnswire.TypeA, answer(name, 300))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if c.Get(name, dnswire.TypeA) == nil {
				b.Fatal("hot entry missed")
			}
		}
	})
}

func BenchmarkCacheMiss(b *testing.B) {
	c, _ := newTestCache(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Get("absent.example.", dnswire.TypeA)
	}
}

func BenchmarkCacheAgedHit(b *testing.B) {
	c, clk := newTestCache(0)
	name := dnswire.Name("aged.example.")
	c.Put(name, dnswire.TypeA, answer(name, 300))
	clk.Advance(5 * time.Second) // past the share window: every hit copies
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Get(name, dnswire.TypeA) == nil {
			b.Fatal("aged entry missed")
		}
	}
}
