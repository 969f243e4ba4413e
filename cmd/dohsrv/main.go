// Command dohsrv runs an RFC 8484 DNS-over-HTTPS server backed by a
// caching recursive resolver. Queries under the measurement zone are
// forwarded to the authoritative server; a self-signed certificate is
// generated when none is supplied.
//
// Usage:
//
//	dohsrv -listen 127.0.0.1:8443 -zone a.com -upstream 127.0.0.1:5300
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/dot"
	"repro/internal/obs"
	"repro/internal/recursive"
	"repro/internal/resolver"
	"repro/internal/serve"
	"repro/internal/smart"
	"repro/internal/tlsutil"
)

// admissionMiddleware bounds in-flight DoH requests. DoH rides
// net/http rather than the serve engine, so admission control lives
// here as a semaphore: over budget, the request is refused immediately
// with 503 + Retry-After (the HTTP analogue of the engine's SERVFAIL
// shed) and counted in dohsrv_shed_total. /metrics stays exempt so the
// server remains observable while melting.
func admissionMiddleware(next http.Handler, budget int, shed *obs.Counter) http.Handler {
	sem := make(chan struct{}, budget)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			shed.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server overloaded", http.StatusServiceUnavailable)
		}
	})
}

func main() {
	listen := flag.String("listen", "127.0.0.1:8443", "HTTPS listen address")
	zone := flag.String("zone", "a.com", "measurement zone routed to -upstream")
	upstream := flag.String("upstream", "127.0.0.1:5300", "authoritative server for the zone")
	upstreamDoT := flag.String("upstream-dot", "", "additional DoT endpoint for the zone (host:port); when set, forwarded queries race Do53 vs DoT and remember the per-name winner (TLS unverified: test authoritatives are self-signed)")
	certFile := flag.String("cert", "", "TLS certificate (PEM); self-signed if empty")
	keyFile := flag.String("key", "", "TLS key (PEM)")
	plain := flag.Bool("plain", false, "serve plain HTTP instead of HTTPS")
	dotListen := flag.String("dot", "", "also serve DNS-over-TLS on this address (e.g. 127.0.0.1:8853)")
	metrics := flag.Bool("metrics", true, "expose the /metrics text endpoint")
	cacheSize := flag.Int("cache", 65536, "answer cache entries")
	staleTTL := flag.Duration("stale-ttl", 0, "serve expired entries for this window while refreshing in the background (RFC 8767; 0 disables)")
	prefetch := flag.Duration("prefetch", 0, "refresh popular entries whose remaining TTL drops below this horizon (0 disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	maxInflight := flag.Int("max-inflight", 0, "admission budget: max DoH requests in flight before answering 503, and max DoT queries before SERVFAIL (0 = unlimited)")
	maxConns := flag.Int("max-conns", 0, "max concurrent DoT connections (0 = unlimited)")
	flag.Parse()

	reg := obs.NewRegistry()
	// The resolver runs on the shared sharded cache (internal/cache);
	// its hit/miss/eviction counters land on /metrics as cache_*_total,
	// and the serve-stale/prefetch counters as cache_stale_served_total,
	// cache_prefetch_total, and cache_refresh_fail_total.
	answerCache := cache.New(cache.Config{
		MaxEntries:        *cacheSize,
		StaleTTL:          *staleTTL,
		PrefetchThreshold: *prefetch,
	})
	answerCache.Instrument(reg, "cache")
	res := recursive.New(answerCache)
	// Forwarding runs on the unified resolver API: Do53 transport with
	// one retry and a per-attempt timeout, so a single dropped UDP
	// datagram to the authoritative server no longer fails the whole
	// DoH request. The registry records per-phase histograms for every
	// forwarded query (resolver_do53_* on /metrics). With -upstream-dot
	// the forwarder becomes a smart racing composite: Do53 and DoT
	// race per query name, the winner is remembered, and each
	// candidate's breaker evicts a dead endpoint from the winner slot
	// (smart_* series land on /metrics).
	do53Up := resolver.Apply(resolver.NewDo53(*upstream, nil), resolver.Policy{
		Retry:          &resolver.RetryPolicy{MaxAttempts: 2},
		AttemptTimeout: 3 * time.Second,
		Registry:       reg,
		Kind:           resolver.Do53,
	})
	var forwarder resolver.Resolver = do53Up
	if *upstreamDoT != "" {
		dotUp := resolver.Apply(
			resolver.NewDoT(&dot.Client{
				Addr:      *upstreamDoT,
				Timeout:   3 * time.Second,
				TLSConfig: tlsutil.InsecureClientConfig(),
			}),
			resolver.Policy{Registry: reg, Kind: resolver.DoT},
		)
		sm, err := smart.New(smart.Config{
			Candidates: []smart.Candidate{
				{Kind: resolver.Do53, Resolver: do53Up,
					Breaker: resolver.NewBreaker(resolver.BreakerPolicy{FailureThreshold: 3})},
				{Kind: resolver.DoT, Resolver: dotUp,
					Breaker: resolver.NewBreaker(resolver.BreakerPolicy{FailureThreshold: 3})},
			},
			KeyFunc: func(q *dnswire.Message) string {
				if len(q.Questions) == 0 {
					return ""
				}
				return string(q.Questions[0].Name)
			},
			Registry: reg,
		})
		if err != nil {
			log.Fatalf("dohsrv: smart forwarder: %v", err)
		}
		defer sm.Close()
		forwarder = sm
		fmt.Printf("dohsrv: racing zone upstreams %s (do53) and %s (dot)\n", *upstream, *upstreamDoT)
	}
	res.AddZone(dnswire.NewName(*zone), resolver.UpstreamAdapter{R: forwarder})
	handler := dohserver.NewHandler(res)

	var dotSrv *dot.Server
	if *dotListen != "" {
		dotCfg, err := tlsutil.ServerConfig(*dotListen)
		if err != nil {
			log.Fatalf("dohsrv: DoT certificate: %v", err)
		}
		dotSrv = dot.NewServer(res, dotCfg)
		dotSrv.Protect = serve.Protection{MaxInflight: *maxInflight, MaxConns: *maxConns}
		if err := dotSrv.ListenAndServe(*dotListen); err != nil {
			log.Fatalf("dohsrv: DoT listener: %v", err)
		}
		fmt.Printf("dohsrv: DoT on %s (self-signed)\n", dotSrv.Addr())
	}
	mux := handler.Mux()
	if *metrics {
		// Server-side counters are published at scrape time so the
		// handler structs stay the source of truth.
		snapshot := obs.Handler(reg)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			reg.Gauge("dohsrv_queries").Set(float64(handler.Queries()))
			reg.Gauge("dohsrv_scrubbed_ecs").Set(float64(handler.ScrubbedECS()))
			reg.Gauge("dohsrv_cache_entries").Set(float64(answerCache.Len()))
			snapshot.ServeHTTP(w, r)
		})
	}
	var httpHandler http.Handler = mux
	if *maxInflight > 0 {
		httpHandler = admissionMiddleware(mux, *maxInflight, reg.Counter("dohsrv_shed_total"))
	}
	// TLS unless -plain: the -cert/-key pair, or a self-signed
	// certificate for the listen host.
	var tlsCfg *tls.Config
	scheme, note := "http", ""
	if !*plain {
		scheme = "https"
		var err error
		if *certFile != "" {
			var cert tls.Certificate
			cert, err = tls.LoadX509KeyPair(*certFile, *keyFile)
			tlsCfg = &tls.Config{Certificates: []tls.Certificate{cert}}
		} else {
			note = " (self-signed)"
			tlsCfg, err = tlsutil.ServerConfig(*listen)
		}
		if err != nil {
			log.Fatalf("dohsrv: certificate: %v", err)
		}
	}
	srv := dohserver.NewServer(httpHandler, tlsCfg)
	if err := srv.ListenAndServe(*listen); err != nil {
		log.Fatalf("dohsrv: %v", err)
	}
	fmt.Printf("dohsrv: %s://%s%s%s -> zone %s via %s\n", scheme, srv.Addr(), dohserver.DefaultPath, note, *zone, *upstream)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	answerCache.Wait() // drain background refreshes
	if st := answerCache.Stats(); *staleTTL > 0 || *prefetch > 0 {
		fmt.Printf("dohsrv: cache %d stale served, refresh %d ok / %d failed, %d prefetches\n",
			st.StaleHits, st.Refreshes, st.RefreshFails, st.Prefetches)
	}
	fmt.Println("dohsrv: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("dohsrv: HTTP shutdown: %v", err)
	}
	if dotSrv != nil {
		if err := dotSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("dohsrv: DoT shutdown: %v", err)
		}
	}
}
