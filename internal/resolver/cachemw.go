package resolver

import (
	"context"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/obs"
)

// WithCache wraps next with a shared TTL-aware answer cache
// (internal/cache): hits are served locally with Timing.Reused set and
// never reach next; concurrent misses for the same question are
// collapsed by the cache's singleflight so one transport resolution
// feeds every waiter. Only NoError and NXDomain responses are
// inserted, and the cache itself rejects TTL-0 and TTL-less messages,
// so errors and SERVFAILs are always re-resolved.
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
	question := q.Questions[0]
	start := time.Now()
	if resp, outcome := cw.cache.LookupInto(question.Name, question.Type, nil); resp != nil {
		// Cached messages are shared and read-only: the copy LookupInto
		// makes is ours to stamp, and our caller keeps it.
		resp.Header.ID = q.Header.ID
		d := time.Since(start)
		if cw.hitHist != nil {
			cw.hitHist.Observe(d)
		}
		return resp, Timing{Total: d, Reused: true, Attempts: 1, Stale: outcome == cache.Stale}, nil
	}

	// Miss: resolve through next, collapsing concurrent misses for the
	// same question into one transport resolution.
	var leaderTiming Timing
	msg, shared, err := cw.cache.Do(ctx, question.Name, question.Type, func() (*dnswire.Message, error) {
		resp, t, err := cw.next.Resolve(ctx, q)
		leaderTiming = t
		if err == nil && (resp.Header.RCode == dnswire.RCodeNoError || resp.Header.RCode == dnswire.RCodeNXDomain) {
			cw.cache.Put(question.Name, question.Type, resp)
		}
		return resp, err
	})
	if err != nil {
		return nil, Timing{Total: time.Since(start)}, err
	}
	if shared {
		// Another caller's flight answered us: its message is shared,
		// and its Timing belongs to the leader — report only our wait.
		resp := *msg
		resp.Header.ID = q.Header.ID
		return &resp, Timing{Total: time.Since(start), Attempts: 1}, nil
	}
	// The leader's message was just handed to cache.Put, which retains
	// it for warm hits. Return a private copy so callers stamping
	// Header fields (every server does, for the client's query ID)
	// don't corrupt the shared cached message under concurrent hits.
	resp := *msg
	return &resp, leaderTiming, nil
}
