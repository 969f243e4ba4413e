// Command recursor runs a caching recursive DNS resolver over UDP and
// TCP — the "default resolver" role in the study. It forwards cache
// misses to fixed upstreams, like an ISP resolver pointing at a farm,
// and routes -zone suffixes past the default upstream.
//
// Usage:
//
//	recursor -listen 127.0.0.1:5353 -forward 127.0.0.1:5300
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
	"strings"
	"time"

	"repro/internal/cmdconfig"
	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/recursive"
	"repro/internal/resolver"
)

// forwarders lists the forwarding endpoints in the racer's launch order.
func forwarders(do53, doh, dot string) []cmdconfig.Endpoint {
	return []cmdconfig.Endpoint{{Kind: resolver.Do53, Addr: do53}, {Kind: resolver.DoH, Addr: doh}, {Kind: resolver.DoT, Addr: dot}}
}

func main() {
	serving := cmdconfig.ServingFlags("127.0.0.1:5353", cmdconfig.Listeners|cmdconfig.RRL)
	answers := cmdconfig.CacheFlags(65536)
	fwd := cmdconfig.ForwarderFlags()
	forward := flag.String("forward", "", "upstream resolver (host:port)")
	forwardDoH := flag.String("forward-doh", "", "additional DoH forwarding endpoint; with two or more forwarding endpoints, cache misses race the transports per name and remember the winner")
	forwardDoT := flag.String("forward-dot", "", "additional DoT forwarding endpoint (host:port), raced like -forward-doh")
	zones := flag.String("zone", "", "comma-separated zone=addr overrides routed past the default upstream")
	attempts := flag.Int("upstream-attempts", 2, "max attempts per upstream query (retries on timeout/drop)")
	flag.DurationVar(&fwd.Timeout, "upstream-timeout", 3*time.Second, "per-attempt upstream timeout")
	workers := flag.Int("workers", 0, "resolver workers per listener (0 = default pool size)")
	debug := cmdconfig.DebugFlag()
	flag.Parse()
	ctx := serving.Notify(context.Background())

	if *forward == "" && *forwardDoH == "" && *forwardDoT == "" {
		fmt.Fprintln(os.Stderr, "recursor: need -forward or -forward-doh/-forward-dot")
		os.Exit(2)
	}
	reg := obs.NewRegistry()
	fwd.Policy = resolver.Policy{Retry: &resolver.RetryPolicy{MaxAttempts: *attempts}, AttemptTimeout: fwd.Timeout, Registry: reg}
	fwd.Breaker, fwd.PerName = 3, true

	res := recursive.New(answers.New(reg))
	up, racer, err := fwd.Build(forwarders(*forward, *forwardDoH, *forwardDoT)...)
	if err != nil {
		log.Fatalf("recursor: forwarder: %v", err)
	}
	res.SetDefault(resolver.UpstreamAdapter{R: up})
	mode := "forwarding to "
	if racer != nil {
		mode = "racing forwards to "
	}
	mode += strings.Join(strings.Fields(*forward+" "+*forwardDoH+" "+*forwardDoT), ", ")
	if *zones != "" {
		for _, pair := range strings.Split(*zones, ",") {
			zone, addr, ok := strings.Cut(pair, "=")
			if !ok || addr == "" {
				log.Fatalf("recursor: bad -zone entry %q (want zone=addr)", pair)
			}
			up, _, _ := fwd.Build(cmdconfig.Endpoint{Kind: resolver.Do53, Addr: addr}) // a lone Do53 endpoint cannot fail
			res.AddZone(dnswire.NewName(zone), resolver.UpstreamAdapter{R: up})
		}
	}

	srv := recursive.NewServer(res)
	srv.Listeners = serving.Listeners
	srv.Concurrency = *workers
	srv.Protect = serving.Protection
	srv.Registry = reg
	if err := srv.ListenAndServe(serving.Listen); err != nil {
		log.Fatalf("recursor: %v", err)
	}
	fmt.Printf("recursor: listening on %s, %s\n", srv.Addr(), mode)
	dbg, err := cmdconfig.Debug("recursor:", *debug, reg)
	if err != nil {
		log.Fatalf("recursor: %v", err)
	}
	rep := cmdconfig.Report{Prefix: "recursor:", Cache: res.Cache(), Racer: racer}
	if err := serving.Run(ctx, rep, srv, dbg); err != nil {
		log.Fatalf("recursor: shutdown: %v", err)
	}
}
