package resolver

import (
	"context"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/obs"
)

// WithCache wraps next with a shared TTL-aware answer cache
// (internal/cache), answering through cache.Answer: hits are served
// locally with Timing.Reused set and never reach next; concurrent misses
// for the same question are collapsed by the cache's singleflight so one
// transport resolution feeds every waiter. Only NoError and NXDomain
// responses are inserted, and the cache itself rejects TTL-0 and
// TTL-less messages, so errors and SERVFAILs are always re-resolved.
//
// Every answer is its caller's, as Resolver's ownership rule asks: the
// leader keeps next's message, and hits and waiters get copies with
// sections of their own, each stamped with its own query's ID, RD bit
// and question, so a caller may pool what it gets.
//
// Place it outermost — above WithMetrics — so the transport's latency
// histograms keep describing real resolutions: a microsecond cache hit
// never lands in resolver_<kind>_total_ms. The hit path records into
// its own resolver_<kind>_cache_hit_ms histogram (finer, µs-scale
// buckets) when reg is non-nil; hit/miss/eviction counters come from
// cache.Instrument, which callers wire once per process.
//
// When the cache is configured with a StaleTTL, expired entries are
// served past expiry (Timing.Stale set, TTLs capped) while the cache
// refreshes them in the background; WithCache wires itself in as the
// cache's Refresher, so background refreshes and prefetches resolve
// through the same next stack — with a fresh query ID and a detached
// context — as foreground misses.
//
// Queries without exactly one question bypass the cache entirely.
func WithCache(next Resolver, c *cache.Cache, reg *obs.Registry, kind Kind) Resolver {
	cw := &cacheware{next: next, cache: c}
	if reg != nil {
		cw.hitHist = reg.Histogram(metricName(kind, "cache_hit_ms"), cacheHitBuckets())
	}
	c.SetRefresher(func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
		resp, _, err := next.Resolve(ctx, Query(name, typ))
		return resp, err
	})
	return cw
}

// cacheHitBuckets is the bucket layout for the hit-path histogram:
// cache hits are in-process map lookups, so the interesting range is
// microseconds, far below DefaultLatencyBuckets' resolution.
func cacheHitBuckets() []time.Duration {
	return []time.Duration{
		time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
		10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
		100 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond,
	}
}

type cacheware struct {
	next    Resolver
	cache   *cache.Cache
	hitHist *obs.Histogram
}

func (cw *cacheware) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	if len(q.Questions) != 1 {
		return cw.next.Resolve(ctx, q)
	}
	start := time.Now()
	var led Timing
	ran := false
	resp, outcome, err := cw.cache.Answer(ctx, q, nil, func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		resp, t, err := cw.next.Resolve(ctx, q)
		led, ran = t, true
		return resp, err
	})
	d := time.Since(start)
	switch {
	case err != nil:
		return nil, Timing{Total: d}, err
	case outcome != cache.Miss:
		if cw.hitHist != nil {
			cw.hitHist.Observe(d)
		}
		return resp, Timing{Total: d, Reused: true, Attempts: 1, Stale: outcome == cache.Stale}, nil
	case ran:
		return resp, led, nil
	}
	// Another caller's flight answered us: its Timing belongs to the
	// leader — report only our wait.
	return resp, Timing{Total: d, Attempts: 1}, nil
}
