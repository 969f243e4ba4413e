package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/anycast"
	"repro/internal/authserver"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/obs"
	"repro/internal/proxynet"
	"repro/internal/recursive"
	"repro/internal/resolver"
	"repro/internal/sketch"
	"repro/internal/smart"
)

// rungsWorkload is the segment name of the rung ladder. It is not a
// workload of the catalogue: the traced phase runs it once, in its own
// process like any other segment.
const rungsWorkload = "rungs"

// rungCache is small enough to fill quickly and large enough to hold
// the hot names.
const rungCacheEntries = 4096

// timeRung times f alone: the fastest of three repetitions of at least
// d each, as ns per call, and the allocations per call of the last.
func timeRung(d time.Duration, f func()) (ns, allocs float64) {
	f() // first call pays lazy initialisation
	var ms runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		calls := 0
		t0 := time.Now()
		for batch := 1; time.Since(t0) < d; batch *= 2 {
			for i := 0; i < batch; i++ {
				f()
			}
			calls += batch
		}
		per := float64(time.Since(t0)) / float64(calls)
		runtime.ReadMemStats(&ms)
		allocs = float64(ms.Mallocs-mallocs) / float64(calls)
		if rep == 0 || per < ns {
			ns = per
		}
	}
	return ns, allocs
}

// namePool cycles through more unique names than rungCache holds, so
// every use of the next one is a miss and every insert evicts.
type namePool struct {
	names []dnswire.Name
	next  int
}

func newNamePool() *namePool {
	p := &namePool{names: make([]dnswire.Name, 4*rungCacheEntries)}
	for i := range p.names {
		p.names[i] = dnswire.Name(fmt.Sprintf("r%06d.%s", i, zoneName))
	}
	return p
}

func (p *namePool) name() dnswire.Name {
	n := p.names[p.next]
	p.next = (p.next + 1) % len(p.names)
	return n
}

func filledCache(cfg cache.Config) (*cache.Cache, error) {
	cfg.MaxEntries = rungCacheEntries
	c := cache.New(cfg)
	return c, prefill(c, rungCacheEntries)
}

// discardWriter is the minimal http.ResponseWriter: the handler's cost
// without net/http's.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// rewindBody lets one POST body be served again without allocating.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// runRungs times each layer's public entry point alone on the
// workloads' own messages.
func runRungs(spec segSpec) (*segResult, error) {
	res := &segResult{Workload: rungsWorkload, Values: map[string]float64{}}
	v := res.Values
	d := spec.Duration
	ctx := context.Background()
	var firstErr error
	must := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	rung := func(name string, f func()) (ns, allocs float64) {
		ns, allocs = timeRung(d, f)
		v[name] = ns
		res.Ops++
		return ns, allocs
	}

	// dnswire: the query and the answer every serving workload moves.
	hot := hotName(1)
	query := dnswire.NewQuery(1, hot, dnswire.TypeA)
	answer := cachedAnswer(hot)
	buf := make([]byte, 0, 512)
	qwire, err := query.AppendPack(nil)
	must(err)
	awire, err := answer.AppendPack(nil)
	must(err)
	into := dnswire.GetMessage()
	var wireAllocs float64
	for _, r := range []struct {
		name string
		f    func()
	}{
		{"dnswire.pack_query_ns", func() { _, err := query.AppendPack(buf[:0]); must(err) }},
		{"dnswire.unpack_query_ns", func() { must(dnswire.UnpackInto(qwire, into)) }},
		{"dnswire.pack_response_ns", func() { _, err := answer.AppendPack(buf[:0]); must(err) }},
		{"dnswire.unpack_response_ns", func() { must(dnswire.UnpackInto(awire, into)) }},
	} {
		_, allocs := rung(r.name, r.f)
		wireAllocs += allocs
	}
	v["dnswire.allocs_per_roundtrip"] = wireAllocs

	// cache: hit, miss, stale hit (clock moved past the TTL inside the
	// stale window), and insert into a full cache.
	pool := newNamePool()
	c, err := filledCache(cache.Config{})
	must(err)
	_, allocs := rung("cache.lookup_hit_ns", func() {
		if m, _ := c.Lookup(hot, dnswire.TypeA); m == nil {
			must(fmt.Errorf("cache rung: %s not cached", hot))
		}
	})
	v["cache.lookup_hit_allocs"] = allocs
	absent := dnswire.Name("absent." + zoneName)
	rung("cache.lookup_miss_ns", func() { c.Lookup(absent, dnswire.TypeA) })
	var shift time.Duration
	staleCache, err := filledCache(cache.Config{
		StaleTTL: 24 * time.Hour,
		Clock:    func() time.Time { return time.Now().Add(shift) },
	})
	must(err)
	shift = 2 * time.Hour // past the 3600 s TTL
	rung("cache.lookup_stale_ns", func() {
		if _, out := staleCache.Lookup(hot, dnswire.TypeA); out != cache.Stale {
			must(fmt.Errorf("cache rung: lookup outcome %v, want stale", out))
		}
	})
	answers := make([]*dnswire.Message, len(pool.names))
	for i, n := range pool.names {
		answers[i] = cachedAnswer(n)
	}
	rung("cache.put_evict_ns", func() {
		i := pool.next
		c.Put(pool.name(), dnswire.TypeA, answers[i])
	})

	// recursive: Resolve over a canned upstream.
	rc, err := filledCache(cache.Config{})
	must(err)
	rec := recursive.New(recursive.WrapCache(rc))
	rec.AddZone(dnswire.NewName(zoneName), recursive.UpstreamFunc(
		func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			m := cachedAnswer(q.Questions[0].Name)
			m.Header.ID = q.Header.ID
			return m, nil
		}))
	_, allocs = rung("recursive.resolve_hit_ns", func() { _, err := rec.Resolve(ctx, query); must(err) })
	v["recursive.resolve_hit_allocs"] = allocs
	// dohserver: ServeHTTP on a cache hit, without net/http around it.
	handler := dohserver.NewHandler(rec)
	w := discardWriter{http.Header{}}
	get := &http.Request{Method: http.MethodGet, URL: &url.URL{
		Path: dohserver.DefaultPath, RawQuery: "dns=" + base64.RawURLEncoding.EncodeToString(qwire)}}
	get = get.WithContext(ctx)
	_, allocs = rung("dohserver.servehttp_get_ns", func() { handler.ServeHTTP(w, get) })
	v["dohserver.servehttp_allocs"] = allocs
	body := rewindBody{bytes.NewReader(qwire)}
	post := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: dohserver.DefaultPath},
		Header: http.Header{"Content-Type": {dohserver.ContentType}}, Body: body}
	post = post.WithContext(ctx)
	rung("dohserver.servehttp_post_ns", func() {
		body.Reset(qwire)
		handler.ServeHTTP(w, post)
	})
	if got := handler.Queries(); got == 0 {
		must(fmt.Errorf("dohserver rung: handler decoded no query"))
	}

	// Last on this resolver: the misses push the hot names out.
	miss := dnswire.NewQuery(2, hot, dnswire.TypeA)
	rung("recursive.resolve_miss_ns", func() {
		miss.Questions[0].Name = pool.name()
		_, err := rec.Resolve(ctx, miss)
		must(err)
	})

	// authserver: the zone lookup behind every miss.
	zone, err := measurementZone()
	must(err)
	auth := authserver.NewServer(zone)
	_, allocs = rung("authserver.answer_ns", func() { auth.Answer(query) })
	v["authserver.answer_allocs"] = allocs

	// resolver: each middleware as a pass-through over a no-op
	// transport, then the stack the forwarder runs under.
	canned := cachedAnswer(hot)
	noop := resolver.Func(func(context.Context, *dnswire.Message) (*dnswire.Message, resolver.Timing, error) {
		return canned, resolver.Timing{Attempts: 1}, nil
	})
	reg := obs.NewRegistry()
	mwCache, err := filledCache(cache.Config{})
	must(err)
	policy := resolver.Policy{
		Retry:          &resolver.RetryPolicy{MaxAttempts: 2},
		AttemptTimeout: 3 * time.Second,
		Registry:       reg,
		Kind:           resolver.Do53,
	}
	for _, r := range []struct {
		name string
		res  resolver.Resolver
	}{
		{"resolver.mw_retry_ns", resolver.WithRetry(noop, *policy.Retry)},
		{"resolver.mw_timeout_ns", resolver.WithTimeout(noop, policy.AttemptTimeout, 0)},
		{"resolver.mw_breaker_ns", resolver.WithBreaker(noop, resolver.NewBreaker(resolver.BreakerPolicy{FailureThreshold: 3}))},
		{"resolver.mw_metrics_ns", resolver.WithMetrics(noop, reg, resolver.Do53)},
		{"resolver.mw_cache_hit_ns", resolver.WithCache(noop, mwCache, nil, resolver.Do53)},
		{"resolver.policy_stack_ns", resolver.Apply(noop, policy)},
	} {
		mw := r.res
		_, allocs = rung(r.name, func() { _, _, err := mw.Resolve(ctx, query); must(err) })
	}
	v["resolver.policy_stack_allocs"] = allocs

	// smart: the remembered-winner path, and a race per query (winner
	// memory that expires at once).
	cands := []smart.Candidate{{Kind: resolver.DoT, Resolver: noop}, {Kind: resolver.DoH, Resolver: noop}}
	for _, r := range []struct {
		name    string
		reRace  time.Duration
		wantAll bool
	}{{"smart.remembered_ns", 0, false}, {"smart.race_ns", time.Nanosecond, true}} {
		sm, err := smart.New(smart.Config{Candidates: cands, SmartOptions: resolver.SmartOptions{ReRaceAfter: r.reRace}})
		must(err)
		if err != nil {
			continue
		}
		rung(r.name, func() { _, _, err := sm.Resolve(ctx, query); must(err) })
		sm.Close()
		if st := sm.Stats(); r.wantAll != (st.Races > st.Remembered) {
			must(fmt.Errorf("%s: %d races, %d remembered", r.name, st.Races, st.Remembered))
		}
	}

	// The campaign's inner loops.
	hist, other := sketch.NewHistogram(), sketch.NewHistogram()
	other.Observe(3 * time.Millisecond)
	rung("sketch.observe_ns", func() { hist.Observe(42 * time.Millisecond) })
	rung("sketch.merge_ns", func() { hist.Merge(other) })
	oh := reg.Histogram("bench_rung_ms", nil)
	rung("obs.histogram_observe_ns", func() { oh.Observe(42 * time.Millisecond) })

	sim := proxynet.NewSim(34)
	node, err := sim.SelectExitNode("BR")
	must(err)
	if err == nil {
		observation, _ := sim.MeasureDoH(node, anycast.Cloudflare, "b.a.com.")
		rung("core.estimate_doh_ns", func() { _, err := core.EstimateDoH(observation); must(err) })
		ns, _ := rung("proxynet.measure_doh_us", func() { sim.MeasureDoH(node, anycast.Cloudflare, "b.a.com.") })
		v["proxynet.measure_doh_us"] = ns / 1e3
	}
	cfg, err := campaignConfig(spec.Seed, true)
	must(err)
	ds, err := campaign.Run(cfg)
	must(err)
	if err == nil {
		ns, _ := rung("campaign.write_csv_ms", func() { must(ds.WriteCSV(io.Discard)) })
		v["campaign.write_csv_ms"] = ns / 1e6
		ns, _ = rung("analysis.new_ms", func() { analysis.New(ds, cfg.MinClients) })
		v["analysis.new_ms"] = ns / 1e6
	}

	if firstErr != nil {
		return nil, fmt.Errorf("rungs: %w", firstErr)
	}
	res.Attempted = res.Ops
	return res, nil
}
