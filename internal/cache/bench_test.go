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
// A warm hit is LookupInto into a message the caller reuses, as every
// server front's pooled exchange is.

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
// must not pay for the stale machinery.
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

// warmHitAllocs fails t if a warm LookupInto on c into a reused message
// allocates.
func warmHitAllocs(t *testing.T, c *Cache, instrumented bool) {
	t.Helper()
	if instrumented {
		c.Instrument(obs.NewRegistry(), "cache")
	}
	name := dnswire.Name("warm.example.")
	c.Put(name, dnswire.TypeA, answer(name, 300))
	var dst dnswire.Message
	if n := testing.AllocsPerRun(1000, func() {
		if m, _ := c.LookupInto(name, dnswire.TypeA, &dst); m == nil {
			t.Fatal("warm entry missed")
		}
	}); n != 0 {
		t.Errorf("warm LookupInto (instrumented %v) allocates %.1f per op, want 0", instrumented, n)
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c, _ := newTestCache(0)
	name := dnswire.Name("warm.example.")
	c.Put(name, dnswire.TypeA, answer(name, 300))
	var dst dnswire.Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m, _ := c.LookupInto(name, dnswire.TypeA, &dst); m == nil {
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
		var dst dnswire.Message
		i := 0
		for pb.Next() {
			c.LookupInto(names[i&63], dnswire.TypeA, &dst)
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
		var dst dnswire.Message
		for pb.Next() {
			if m, _ := c.LookupInto(name, dnswire.TypeA, &dst); m == nil {
				b.Fatal("hot entry missed")
			}
		}
	})
}

func BenchmarkCacheMiss(b *testing.B) {
	c, _ := newTestCache(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup("absent.example.", dnswire.TypeA)
	}
}

func BenchmarkCacheAgedHit(b *testing.B) {
	c, clk := newTestCache(0)
	name := dnswire.Name("aged.example.")
	c.Put(name, dnswire.TypeA, answer(name, 300))
	clk.Advance(5 * time.Second) // every hit ages the TTLs it copies
	var dst dnswire.Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m, _ := c.LookupInto(name, dnswire.TypeA, &dst); m == nil {
			b.Fatal("aged entry missed")
		}
	}
}
