// Command recursor runs a caching recursive DNS resolver over UDP —
// the "default resolver" role in the study. It operates in one of two
// modes: forwarding (send cache misses to a fixed upstream, like an
// ISP resolver pointing at a farm) or iterative (walk delegations
// from root hints, like BIND).
//
// Usage:
//
//	recursor -listen 127.0.0.1:5353 -forward 127.0.0.1:5300
//	recursor -listen 127.0.0.1:5353 -roots 127.0.0.1:5300
//	recursor -listen 127.0.0.1:5353 -forward 8.8.8.8:53 -zone a.com=127.0.0.1:5300
//	recursor -listen 127.0.0.1:5353 -forward 127.0.0.1:5300 -forward-doh https://... -forward-dot ADDR
//	    # race the forwarding transports per query name, remember the winner
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dot"
	"repro/internal/recursive"
	"repro/internal/resolver"
	"repro/internal/serve"
	"repro/internal/smart"
	"repro/internal/tlsutil"
)

// upstreamFor builds a forwarding upstream on the unified resolver
// API: Do53 transport under a retry policy (attempts and per-attempt
// timeout from flags), adapted to the recursive resolver's Upstream
// shape.
func upstreamFor(addr string, attempts int, timeout time.Duration) recursive.Upstream {
	base := resolver.NewDo53(addr, nil)
	return resolver.UpstreamAdapter{R: resolver.Apply(base, resolver.Policy{
		Retry:          &resolver.RetryPolicy{MaxAttempts: attempts},
		AttemptTimeout: timeout,
	})}
}

// smartUpstream builds the racing forwarder: every configured
// forwarding endpoint (Do53, DoH, DoT) becomes a candidate, each with
// its own breaker so a dead endpoint is evicted from the winner slot
// and skipped in races instead of failing cache misses. Winner memory
// is keyed per query name, so different zones can settle on different
// transports. Returns the composite for stats reporting alongside the
// adapted upstream.
func smartUpstream(do53, dohURL, dotAddr string, attempts int, timeout, stagger time.Duration, insecure bool) (recursive.Upstream, *smart.Resolver, error) {
	pol := resolver.Policy{
		Retry:          &resolver.RetryPolicy{MaxAttempts: attempts},
		AttemptTimeout: timeout,
	}
	var cands []smart.Candidate
	add := func(kind resolver.Kind, base resolver.Resolver) {
		cands = append(cands, smart.Candidate{
			Kind:     kind,
			Resolver: resolver.Apply(base, pol),
			Breaker:  resolver.NewBreaker(resolver.BreakerPolicy{FailureThreshold: 3}),
		})
	}
	if do53 != "" {
		add(resolver.Do53, resolver.NewDo53(do53, nil))
	}
	if dohURL != "" {
		c, err := dohclient.New(dohURL, &dohclient.Options{InsecureTLS: insecure, Timeout: timeout})
		if err != nil {
			return nil, nil, err
		}
		add(resolver.DoH, resolver.NewDoH(c))
	}
	if dotAddr != "" {
		c := &dot.Client{Addr: dotAddr, Timeout: timeout}
		if insecure {
			c.TLSConfig = tlsutil.InsecureClientConfig()
		}
		add(resolver.DoT, resolver.NewDoT(c))
	}
	cfg := smart.Config{
		Candidates: cands,
		// Per-name winner memory: zone cuts (e.g. -zone overrides
		// upstreamed elsewhere) already route before this resolver, so
		// the name is the destination.
		KeyFunc: func(q *dnswire.Message) string {
			if len(q.Questions) == 0 {
				return ""
			}
			return string(q.Questions[0].Name)
		},
	}
	cfg.Stagger = stagger
	sm, err := smart.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return resolver.UpstreamAdapter{R: sm}, sm, nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:5353", "UDP listen address")
	forward := flag.String("forward", "", "forwarding mode: upstream resolver (host:port)")
	forwardDoH := flag.String("forward-doh", "", "additional DoH forwarding endpoint; with two or more forwarding endpoints, cache misses race the transports per name and remember the winner")
	forwardDoT := flag.String("forward-dot", "", "additional DoT forwarding endpoint (host:port), raced like -forward-doh")
	stagger := flag.Duration("stagger", 0, "racing forwarder: happy-eyeballs delay between candidate launches (0 = default)")
	insecure := flag.Bool("insecure", false, "skip TLS verification on -forward-doh/-forward-dot (self-signed test servers)")
	roots := flag.String("roots", "", "iterative mode: comma-separated root server addresses")
	zones := flag.String("zone", "", "comma-separated zone=addr overrides routed past the default upstream")
	cacheSize := flag.Int("cache", 65536, "cache entries")
	staleTTL := flag.Duration("stale-ttl", 0, "serve expired entries for this window while refreshing in the background (RFC 8767; 0 disables)")
	prefetch := flag.Duration("prefetch", 0, "refresh popular entries whose remaining TTL drops below this horizon (0 disables)")
	minimize := flag.Bool("minimize", false, "QNAME minimization (RFC 7816) in iterative mode")
	attempts := flag.Int("upstream-attempts", 2, "max attempts per upstream query (retries on timeout/drop)")
	upstreamTimeout := flag.Duration("upstream-timeout", 3*time.Second, "per-attempt upstream timeout")
	listeners := flag.Int("listeners", 1, "parallel UDP listener shards (SO_REUSEPORT where available)")
	workers := flag.Int("workers", 0, "resolver workers per listener (0 = default pool size)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	maxInflight := flag.Int("max-inflight", 0, "admission budget: max queries in flight before shedding SERVFAIL (0 = unlimited)")
	rrl := flag.Float64("rrl", 0, "UDP response rate limit per source prefix, responses/sec (0 = off)")
	rrlBurst := flag.Float64("rrl-burst", 0, "RRL token-bucket burst (0 = same as -rrl)")
	rrlSlip := flag.Int("rrl-slip", 0, "answer every Nth rate-limited query with TC=1 (0 = default 2, negative = never)")
	flag.Parse()

	if *forward == "" && *roots == "" && *forwardDoH == "" && *forwardDoT == "" {
		fmt.Fprintln(os.Stderr, "recursor: need -forward, -forward-doh/-forward-dot, or -roots")
		os.Exit(2)
	}

	res := recursive.New(cache.New(cache.Config{
		MaxEntries:        *cacheSize,
		StaleTTL:          *staleTTL,
		PrefetchThreshold: *prefetch,
	}))
	var sm *smart.Resolver
	switch {
	case *roots != "":
		res.SetDefault(&recursive.Iterative{
			Roots:          strings.Split(*roots, ","),
			MinimizeQNames: *minimize,
		})
	case *forwardDoH != "" || *forwardDoT != "":
		up, racer, err := smartUpstream(*forward, *forwardDoH, *forwardDoT, *attempts, *upstreamTimeout, *stagger, *insecure)
		if err != nil {
			log.Fatalf("recursor: racing forwarder needs at least two endpoints (-forward/-forward-doh/-forward-dot): %v", err)
		}
		sm = racer
		res.SetDefault(up)
	default:
		res.SetDefault(upstreamFor(*forward, *attempts, *upstreamTimeout))
	}
	if *zones != "" {
		for _, pair := range strings.Split(*zones, ",") {
			zone, addr, ok := strings.Cut(pair, "=")
			if !ok {
				log.Fatalf("recursor: bad -zone entry %q (want zone=addr)", pair)
			}
			res.AddZone(dnswire.NewName(zone), upstreamFor(addr, *attempts, *upstreamTimeout))
		}
	}

	srv := recursive.NewServer(res)
	srv.Listeners = *listeners
	srv.Concurrency = *workers
	srv.Protect = serve.Protection{
		MaxInflight: *maxInflight,
		RateLimit:   *rrl,
		RateBurst:   *rrlBurst,
		RateSlip:    *rrlSlip,
	}
	if err := srv.ListenAndServe(*listen); err != nil {
		log.Fatalf("recursor: %v", err)
	}
	mode := "forwarding to " + *forward
	if sm != nil {
		var eps []string
		for _, ep := range []string{*forward, *forwardDoH, *forwardDoT} {
			if ep != "" {
				eps = append(eps, ep)
			}
		}
		mode = "racing forwards to " + strings.Join(eps, ", ")
	}
	if *roots != "" {
		mode = "iterating from " + *roots
	}
	fmt.Printf("recursor: listening on %s, %s\n", srv.Addr(), mode)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	res.Cache().Wait() // drain background refreshes before reporting
	st := res.Cache().Stats()
	fmt.Printf("recursor: cache %d hits (%d negative, %d stale) / %d misses, %d evictions, shutting down\n",
		st.Hits, st.NegativeHits, st.StaleHits, st.Misses, st.Evictions)
	if *staleTTL > 0 || *prefetch > 0 {
		fmt.Printf("recursor: refresh %d ok / %d failed, %d prefetches\n",
			st.Refreshes, st.RefreshFails, st.Prefetches)
	}
	if sm != nil {
		sm.Close() // wait out background probes so the stats are final
		sst := sm.Stats()
		fmt.Printf("recursor: smart forwarder: %d remembered / %d races, %d probes, %d switches, %d evictions, %d destinations\n",
			sst.Remembered, sst.Races, sst.Probes, sst.Switches, sst.Evictions, sst.Destinations)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("recursor: shutdown: %v", err)
	}
}
