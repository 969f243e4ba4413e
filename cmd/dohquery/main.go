// Command dohquery is a dig-like lookup tool speaking DoH (RFC 8484),
// DoT (RFC 7858), and conventional Do53 through the unified resolver
// API, with optional retry/hedging policy.
//
// Usage:
//
//	dohquery -doh https://127.0.0.1:8443/dns-query example.com A
//	dohquery -do53 127.0.0.1:5353 example.com AAAA
//	dohquery -dot 127.0.0.1:8853 -insecure example.com A
//	dohquery -doh https://... -n 5 example.com A       # reuse the connection
//	dohquery -do53 ... -retries 3 -hedge 50ms example.com
//	dohquery -doh https://... -n 20 -breaker 5 example.com   # circuit-break a dead endpoint
//	dohquery -doh https://... -n 10 -cache 1024 example.com  # warm hits from the client cache
//	dohquery -transport smart -doh https://... -dot ADDR -do53 ADDR -n 5 example.com
//	                                                         # race the endpoints, remember the winner
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dot"
	"repro/internal/obs"
	"repro/internal/resolver"
	"repro/internal/smart"
	"repro/internal/tlsutil"
)

func main() {
	dohURL := flag.String("doh", "", "DoH endpoint URL (e.g. https://host:port/dns-query)")
	do53 := flag.String("do53", "", "Do53 server address (host:port)")
	dotAddr := flag.String("dot", "", "DoT server address (host:port)")
	insecure := flag.Bool("insecure", false, "skip TLS certificate verification (self-signed test servers)")
	n := flag.Int("n", 1, "number of queries over one connection (DoHN measurement)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-query timeout")
	retries := flag.Int("retries", 0, "max retry attempts on failure (0 disables retry)")
	hedge := flag.Duration("hedge", 0, "hedging delay: launch a second attempt if no answer after this long (0 disables)")
	hedgeMax := flag.Int("hedge-max", 2, "max concurrent hedged attempts per query (with -hedge)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "per-attempt timeout inside the retry loop (0 disables)")
	breaker := flag.Int("breaker", 0, "circuit breaker: short-circuit after this many consecutive failures, probing every 30s (0 disables)")
	cacheSize := flag.Int("cache", 0, "client-side answer cache entries; with -n the same name repeats so later queries hit warm (0 disables)")
	staleTTL := flag.Duration("stale-ttl", 0, "client cache: serve expired entries for this window while refreshing in the background (RFC 8767)")
	prefetch := flag.Duration("prefetch", 0, "client cache: refresh popular entries whose remaining TTL drops below this horizon")
	dumpMetrics := flag.Bool("metrics", false, "dump the metrics registry (text exposition format) to stderr on exit")
	transport := flag.String("transport", "auto", `transport selection: "auto" uses the single configured endpoint; "smart" races every configured endpoint (-doh/-dot/-do53) and remembers the winner`)
	stagger := flag.Duration("stagger", 0, "smart racing: happy-eyeballs delay between candidate launches (0 = default)")
	flag.Parse()

	args := flag.Args()
	if len(args) < 1 || (*dohURL == "" && *do53 == "" && *dotAddr == "") {
		fmt.Fprintln(os.Stderr, "usage: dohquery (-doh URL | -do53 ADDR | -dot ADDR) [-transport smart] [-n N] [-retries K] [-hedge D] name [type]")
		os.Exit(2)
	}
	if *transport != "auto" && *transport != "smart" {
		fmt.Fprintf(os.Stderr, "dohquery: unknown -transport %q (want auto or smart)\n", *transport)
		os.Exit(2)
	}
	name := dnswire.NewName(args[0])
	qtype := dnswire.TypeA
	if len(args) > 1 {
		switch strings.ToUpper(args[1]) {
		case "A":
			qtype = dnswire.TypeA
		case "AAAA":
			qtype = dnswire.TypeAAAA
		case "TXT":
			qtype = dnswire.TypeTXT
		case "NS":
			qtype = dnswire.TypeNS
		case "CNAME":
			qtype = dnswire.TypeCNAME
		case "MX":
			qtype = dnswire.TypeMX
		case "SOA":
			qtype = dnswire.TypeSOA
		default:
			fmt.Fprintf(os.Stderr, "unknown type %q\n", args[1])
			os.Exit(2)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*n)*(*timeout))
	defer cancel()

	// Endpoint builders, shared by the single-transport path and the
	// smart racing composite.
	buildDoH := func() resolver.Resolver {
		// Size the idle pool to the hedge fan-out: the default of 4
		// would discard connections above the cap after a wider hedge
		// burst, forcing re-dials that inflate t_DoHR.
		idle := 4
		if *hedge > 0 && *hedgeMax > idle {
			idle = *hedgeMax
		}
		opts := &dohclient.Options{InsecureTLS: *insecure, Timeout: *timeout, MaxIdleConnsPerHost: idle}
		c, err := dohclient.New(*dohURL, opts)
		if err != nil {
			fatal(err)
		}
		return resolver.NewDoH(c)
	}
	var closers []func() error
	buildDoT := func() resolver.Resolver {
		c := &dot.Client{Addr: *dotAddr, Timeout: *timeout}
		if *insecure {
			c.TLSConfig = tlsutil.InsecureClientConfig()
		}
		closers = append(closers, c.Close)
		return resolver.NewDoT(c)
	}
	buildDo53 := func() resolver.Resolver {
		return resolver.NewDo53(*do53, &dnsclient.Client{Timeout: *timeout})
	}
	defer func() {
		for _, close := range closers {
			close()
		}
	}()

	metrics := &resolver.Metrics{}
	reg := obs.NewRegistry()
	pol := resolver.Policy{
		AttemptTimeout: *attemptTimeout,
		HedgeDelay:     *hedge,
		HedgeMax:       *hedgeMax,
		Metrics:        metrics,
	}
	if *retries > 0 {
		pol.Retry = &resolver.RetryPolicy{MaxAttempts: *retries + 1}
	}
	var answers *cache.Cache
	if *cacheSize > 0 {
		answers = cache.New(cache.Config{
			MaxEntries:        *cacheSize,
			StaleTTL:          *staleTTL,
			PrefetchThreshold: *prefetch,
		})
		if *dumpMetrics {
			answers.Instrument(reg, "cache")
		}
	}

	var res resolver.Resolver
	var kind resolver.Kind
	var sm *smart.Resolver
	if *transport == "smart" {
		// Every configured endpoint becomes a race candidate under its
		// own policy stack; the smart layer feeds each candidate's
		// breaker from race and probe outcomes, so an open breaker
		// evicts the candidate from the winner slot and excludes it
		// from races instead of failing queries.
		var cands []smart.Candidate
		add := func(k resolver.Kind, base resolver.Resolver) {
			cp := pol
			if *dumpMetrics {
				cp.Registry = reg
				cp.Kind = k
			}
			var brk *resolver.Breaker
			if *breaker > 0 {
				brk = resolver.NewBreaker(resolver.BreakerPolicy{FailureThreshold: *breaker})
			}
			cands = append(cands, smart.Candidate{Kind: k, Resolver: resolver.Apply(base, cp), Breaker: brk})
		}
		if *dohURL != "" {
			add(resolver.DoH, buildDoH())
		}
		if *dotAddr != "" {
			add(resolver.DoT, buildDoT())
		}
		if *do53 != "" {
			add(resolver.Do53, buildDo53())
		}
		cfg := smart.Config{Candidates: cands}
		cfg.Stagger = *stagger
		if *dumpMetrics {
			cfg.Registry = reg
		}
		var err error
		sm, err = smart.New(cfg)
		if err != nil {
			fatal(fmt.Errorf("-transport smart needs at least two of -doh/-dot/-do53: %w", err))
		}
		defer sm.Close()
		res, kind = sm, resolver.Smart
		if answers != nil {
			// The answer cache wraps the composite, not each candidate:
			// a hit must skip the race entirely.
			res = resolver.Apply(res, resolver.Policy{Cache: answers})
		}
	} else {
		var base resolver.Resolver
		switch {
		case *dohURL != "":
			base, kind = buildDoH(), resolver.DoH
		case *dotAddr != "":
			base, kind = buildDoT(), resolver.DoT
		default:
			base, kind = buildDo53(), resolver.Do53
		}
		if *dumpMetrics {
			pol.Registry = reg
			pol.Kind = kind
		}
		if *breaker > 0 {
			pol.Breaker = &resolver.BreakerPolicy{FailureThreshold: *breaker}
		}
		pol.Cache = answers
		res = resolver.Apply(base, pol)
	}

	for i := 0; i < *n; i++ {
		qname := name
		// -n normally uniquifies names (the DoHN measurement must defeat
		// upstream caches); with -cache the point is the opposite — keep
		// the name stable so queries after the first hit warm.
		if *n > 1 && answers == nil {
			qname = dnswire.NewName(fmt.Sprintf("q%d-%s", i, name))
		}
		resp, timing, err := res.Resolve(ctx, resolver.Query(qname, qtype))
		if err != nil {
			fatal(err)
		}
		printTiming(i+1, timing)
		if i == *n-1 {
			fmt.Print(resp)
		}
	}
	snap := metrics.Snapshot()
	if snap.Retries > 0 || snap.Hedges > 0 || snap.Failures > 0 {
		fmt.Printf(";; policy: attempts=%d retries=%d hedges=%d failures=%d\n",
			snap.Attempts, snap.Retries, snap.Hedges, snap.Failures)
	}
	if sm != nil {
		sm.Close() // wait out background probes so the stats are final
		st := sm.Stats()
		fmt.Printf(";; smart: %d remembered / %d races, %d probes, %d switches, %d evictions\n",
			st.Remembered, st.Races, st.Probes, st.Switches, st.Evictions)
		wins := sm.WinsByKind()
		for _, k := range resolver.Kinds() {
			if wins[k] > 0 {
				fmt.Printf(";; smart: %s won %d race(s)\n", k, wins[k])
			}
		}
	}
	if answers != nil {
		answers.Wait() // drain background refreshes before reporting
		st := answers.Stats()
		fmt.Printf(";; cache: %d hits (%d negative, %d stale) / %d misses, %d entries\n",
			st.Hits, st.NegativeHits, st.StaleHits, st.Misses, answers.Len())
		if st.Refreshes+st.RefreshFails+st.Prefetches > 0 {
			fmt.Printf(";; cache refresh: %d ok / %d failed, %d prefetches\n",
				st.Refreshes, st.RefreshFails, st.Prefetches)
		}
	}
	if *dumpMetrics {
		resolver.PublishPolicyMetrics(reg, kind, metrics)
		if err := reg.Snapshot().WriteText(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// printTiming renders the unified per-phase breakdown, identical for
// every transport (phases a transport doesn't have read as 0s).
func printTiming(i int, t resolver.Timing) {
	b := t.Breakdown()
	keys := make([]string, 0, len(b))
	for k := range b {
		if k == "total" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf(";; query %d: total=%v", i, t.Total.Round(time.Microsecond))
	for _, k := range keys {
		fmt.Printf(" %s=%v", k, b[k].Round(time.Microsecond))
	}
	fmt.Printf(" attempts=%d reused=%v", t.AttemptCount(), t.Reused)
	if t.Stale {
		fmt.Print(" stale=true")
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dohquery:", err)
	os.Exit(1)
}
