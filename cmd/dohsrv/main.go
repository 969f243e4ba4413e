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
	"time"

	"repro/internal/cmdconfig"
	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/dot"
	"repro/internal/obs"
	"repro/internal/recursive"
	"repro/internal/resolver"
	"repro/internal/tlsutil"
)

// admissionMiddleware bounds in-flight DoH requests: over budget, 503 +
// Retry-After at once, counted in dohsrv_shed_total.
func admissionMiddleware(next http.Handler, budget int, shed *obs.Counter) http.Handler {
	sem := make(chan struct{}, budget)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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

// upstreams lists the zone's upstreams in the racer's launch order.
func upstreams(do53, dot string) []cmdconfig.Endpoint {
	return []cmdconfig.Endpoint{{Kind: resolver.Do53, Addr: do53}, {Kind: resolver.DoT, Addr: dot}}
}

func main() {
	serving := cmdconfig.ServingFlags("127.0.0.1:8443", cmdconfig.MaxConns)
	answers := cmdconfig.CacheFlags(65536)
	zone := flag.String("zone", "a.com", "measurement zone routed to -upstream")
	upstream := flag.String("upstream", "127.0.0.1:5300", "authoritative server for the zone")
	upstreamDoT := flag.String("upstream-dot", "", "additional DoT endpoint for the zone (host:port); when set, forwarded queries race Do53 vs DoT and remember the per-name winner (TLS unverified: test authoritatives are self-signed)")
	certFile := flag.String("cert", "", "TLS certificate (PEM) for HTTPS and DoT; self-signed if empty")
	keyFile := flag.String("key", "", "TLS key (PEM)")
	plain := flag.Bool("plain", false, "serve plain HTTP instead of HTTPS")
	dotListen := flag.String("dot", "", "also serve DNS-over-TLS on this address (e.g. 127.0.0.1:8853)")
	debug := cmdconfig.DebugFlag()
	flag.Parse()
	ctx := serving.Notify(context.Background())

	reg := obs.NewRegistry()
	answerCache := answers.New(reg) // cache_*_total on /metrics
	res := recursive.New(answerCache)
	// One retry, so a single dropped datagram does not fail the request;
	// resolver_<kind>_* and smart_* land on /metrics.
	fwd := cmdconfig.Forwarder{
		Policy:  resolver.Policy{Retry: &resolver.RetryPolicy{MaxAttempts: 2}, AttemptTimeout: 3 * time.Second, Registry: reg},
		Timeout: 3 * time.Second, Breaker: 3, PerName: true, Insecure: true,
	}
	forwarder, racer, err := fwd.Build(upstreams(*upstream, *upstreamDoT)...)
	if err != nil {
		log.Fatalf("dohsrv: smart forwarder: %v", err)
	}
	if racer != nil {
		fmt.Printf("dohsrv: racing zone upstreams %s (do53) and %s (dot)\n", *upstream, *upstreamDoT)
	}
	res.AddZone(dnswire.NewName(*zone), resolver.UpstreamAdapter{R: forwarder})
	handler := dohserver.NewHandler(res)
	handler.Instrument(reg, "dohsrv") // dohsrv_{queries,scrubbed_ecs}_total on /metrics

	// Both listeners serve the -cert/-key pair, else a self-signed one.
	certFor := func(addr string) (cfg *tls.Config, note string) {
		var err error
		if *certFile != "" {
			var cert tls.Certificate
			cert, err = tls.LoadX509KeyPair(*certFile, *keyFile)
			cfg = &tls.Config{Certificates: []tls.Certificate{cert}}
		} else {
			cfg, err = tlsutil.ServerConfig(addr)
			note = " (self-signed)"
		}
		if err != nil {
			log.Fatalf("dohsrv: certificate: %v", err)
		}
		return cfg, note
	}
	dotSrv := dot.NewServer(res, nil) // drained as a no-op unless -dot
	dotSrv.Registry = reg
	if *dotListen != "" {
		var note string
		dotSrv.TLSConfig, note = certFor(*dotListen)
		dotSrv.Protect = serving.Protection
		if err := dotSrv.ListenAndServe(*dotListen); err != nil {
			log.Fatalf("dohsrv: DoT listener: %v", err)
		}
		fmt.Printf("dohsrv: DoT on %s%s\n", dotSrv.Addr(), note)
	}
	var httpHandler http.Handler = handler.Mux()
	if serving.MaxInflight > 0 {
		httpHandler = admissionMiddleware(httpHandler, serving.MaxInflight, reg.Counter("dohsrv_shed_total"))
	}
	var tlsCfg *tls.Config
	scheme, note := "http", ""
	if !*plain {
		scheme = "https"
		tlsCfg, note = certFor(serving.Listen)
	}
	srv := dohserver.NewServer(httpHandler, tlsCfg)
	if err := srv.ListenAndServe(serving.Listen); err != nil {
		log.Fatalf("dohsrv: %v", err)
	}
	fmt.Printf("dohsrv: %s://%s%s%s -> zone %s via %s\n", scheme, srv.Addr(), dohserver.DefaultPath, note, *zone, *upstream)
	dbg, err := cmdconfig.Debug("dohsrv:", *debug, reg)
	if err != nil {
		log.Fatalf("dohsrv: %v", err)
	}

	rep := cmdconfig.Report{Prefix: "dohsrv:", Cache: answerCache, Racer: racer}
	if err := serving.Run(ctx, rep, dotSrv, srv, dbg); err != nil {
		log.Fatalf("dohsrv: shutdown: %v", err)
	}
}
