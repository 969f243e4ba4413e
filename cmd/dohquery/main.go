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
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cmdconfig"
	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/resolver"
)

// endpoints lists the endpoints in the racer's launch order; -transport
// auto takes the first one configured.
func endpoints(doh, dot, do53 string) []cmdconfig.Endpoint {
	return []cmdconfig.Endpoint{{Kind: resolver.DoH, Addr: doh}, {Kind: resolver.DoT, Addr: dot}, {Kind: resolver.Do53, Addr: do53}}
}

func main() {
	answers := cmdconfig.CacheFlags(0)
	fwd := cmdconfig.ForwarderFlags()
	dohURL := flag.String("doh", "", "DoH endpoint URL (e.g. https://host:port/dns-query)")
	do53 := flag.String("do53", "", "Do53 server address (host:port)")
	dotAddr := flag.String("dot", "", "DoT server address (host:port)")
	n := flag.Int("n", 1, "number of queries over one connection (DoHN measurement)")
	flag.DurationVar(&fwd.Timeout, "timeout", 10*time.Second, "per-query timeout")
	retries := flag.Int("retries", 0, "max retry attempts on failure (0 disables retry)")
	hedge := flag.Duration("hedge", 0, "hedging delay: launch a second attempt if no answer after this long (0 disables)")
	hedgeMax := flag.Int("hedge-max", 2, "max concurrent hedged attempts per query (with -hedge)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "per-attempt timeout inside the retry loop (0 disables)")
	breaker := flag.Int("breaker", 0, "circuit breaker: short-circuit after this many consecutive failures, probing every 30s (0 disables)")
	dumpMetrics := flag.Bool("metrics", false, "dump the metrics registry (text exposition format) to stderr on exit")
	transport := flag.String("transport", "auto", `transport selection: "auto" uses the single configured endpoint; "smart" races every configured endpoint (-doh/-dot/-do53) and remembers the winner`)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("dohquery: ")

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
		qtype = 0
		for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeTXT, dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypeMX, dnswire.TypeSOA} {
			if strings.ToUpper(args[1]) == t.String() {
				qtype = t
			}
		}
		if qtype == 0 {
			fmt.Fprintf(os.Stderr, "unknown type %q\n", args[1])
			os.Exit(2)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*n)*fwd.Timeout)
	defer cancel()

	// With -transport smart the racer feeds each candidate's breaker: an
	// open one evicts the candidate from the winner slot, failing nothing.
	metrics := &resolver.Metrics{}
	reg := obs.NewRegistry()
	fwd.Policy = resolver.Policy{AttemptTimeout: *attemptTimeout, HedgeDelay: *hedge, HedgeMax: *hedgeMax, Metrics: metrics}
	if *retries > 0 {
		fwd.Policy.Retry = &resolver.RetryPolicy{MaxAttempts: *retries + 1}
	}
	if *breaker > 0 {
		fwd.Policy.Breaker = &resolver.BreakerPolicy{FailureThreshold: *breaker}
	}
	fwd.Breaker = *breaker
	if *dumpMetrics {
		fwd.Policy.Registry = reg
	}

	eps, kind := endpoints(*dohURL, *dotAddr, *do53), resolver.Smart
	for *transport == "auto" && eps[0].Addr == "" {
		eps = eps[1:]
	}
	if *transport == "auto" {
		eps, kind = eps[:1], eps[0].Kind
	}
	res, racer, err := fwd.Build(eps...)
	if err != nil {
		log.Fatal(err)
	}
	if kind == resolver.Smart && racer == nil {
		log.Fatal("-transport smart needs at least two of -doh/-dot/-do53")
	}
	rep := cmdconfig.Report{Prefix: ";;", Racer: racer}
	if answers.MaxEntries > 0 {
		// The cache wraps the whole forwarder: a hit skips the race.
		rep.Cache = answers.New(reg)
		res = resolver.WithCache(res, rep.Cache, fwd.Policy.Registry, kind)
	}

	for i := 0; i < *n; i++ {
		qname := name
		// -n normally uniquifies names (the DoHN measurement must defeat
		// upstream caches); with -cache the point is the opposite — keep
		// the name stable so queries after the first hit warm.
		if *n > 1 && rep.Cache == nil {
			qname = dnswire.NewName(fmt.Sprintf("q%d-%s", i, name))
		}
		resp, timing, err := res.Resolve(ctx, resolver.Query(qname, qtype))
		if err != nil {
			log.Fatal(err)
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
	rep.Print()
	if *dumpMetrics {
		resolver.PublishPolicyMetrics(reg, kind, metrics)
		if err := reg.Snapshot().WriteText(os.Stderr); err != nil {
			log.Fatal(err)
		}
	}
}

// printTiming renders the unified per-phase breakdown, identical for
// every transport (phases a transport doesn't have read as 0s).
func printTiming(i int, t resolver.Timing) {
	b := t.Breakdown()
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf(";; query %d: total=%v", i, t.Total.Round(time.Microsecond))
	for _, k := range keys {
		if k != "total" {
			fmt.Printf(" %s=%v", k, b[k].Round(time.Microsecond))
		}
	}
	fmt.Printf(" attempts=%d reused=%v", t.AttemptCount(), t.Reused)
	if t.Stale {
		fmt.Print(" stale=true")
	}
	fmt.Println()
}
