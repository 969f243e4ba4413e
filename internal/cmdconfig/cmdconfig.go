// Package cmdconfig is what authdns, recursor, dohsrv and dohquery share:
// flag groups, the forwarder over upstream endpoints, the servers'
// signal-then-drain lifecycle and the report of a cache and a racer;
// superproxy shares the debug listener.
package cmdconfig

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dohserver"
	"repro/internal/dot"
	"repro/internal/obs"
	"repro/internal/resolver"
	"repro/internal/serve"
	"repro/internal/smart"
	"repro/internal/tlsutil"
)

// Cache is the answer-cache flag group: -cache, -stale-ttl, -prefetch.
type Cache struct{ cache.Config }

// CacheFlags registers the cache group, -cache defaulting to size.
func CacheFlags(size int) *Cache {
	c := &Cache{}
	flag.IntVar(&c.MaxEntries, "cache", size, "answer cache entries (0: the default size on a server, no cache on dohquery)")
	flag.DurationVar(&c.StaleTTL, "stale-ttl", 0, "serve expired entries for this window while refreshing in the background (RFC 8767; 0 disables)")
	flag.DurationVar(&c.PrefetchThreshold, "prefetch", 0, "refresh popular entries whose remaining TTL drops below this horizon (0 disables)")
	return c
}

// New builds the cache the flags describe, its counters filed in reg.
func (c *Cache) New(reg *obs.Registry) *cache.Cache {
	answers := cache.New(c.Config)
	answers.Instrument(reg, "cache")
	return answers
}

// The serving group's optional members, for ServingFlags.
const (
	Listeners = 1 << iota // -listeners
	MaxConns              // -max-conns
	RRL                   // -rrl, -rrl-burst, -rrl-slip
)

// Serving is the serving flag group; its optional members stay zero.
type Serving struct {
	Listen    string
	Drain     time.Duration
	Listeners int
	serve.Protection

	stop context.CancelFunc // Notify's
}

// ServingFlags registers -listen (default listen), -drain, -max-inflight
// and the optional members named in with.
func ServingFlags(listen string, with int) *Serving {
	s := &Serving{}
	flag.StringVar(&s.Listen, "listen", listen, "listen address")
	flag.DurationVar(&s.Drain, "drain", 10*time.Second, "graceful-shutdown drain budget")
	flag.IntVar(&s.MaxInflight, "max-inflight", 0, "admission budget: max queries in flight before shedding with SERVFAIL, or HTTP 503 on DoH (0 = unlimited)")
	if with&Listeners != 0 {
		flag.IntVar(&s.Listeners, "listeners", 1, "parallel UDP listener shards (SO_REUSEPORT where available)")
	}
	if with&MaxConns != 0 {
		flag.IntVar(&s.MaxConns, "max-conns", 0, "max concurrent TCP or TLS connections (0 = unlimited)")
	}
	if with&RRL != 0 {
		flag.Float64Var(&s.RateLimit, "rrl", 0, "UDP response rate limit per source prefix, responses/sec (0 = off)")
		flag.Float64Var(&s.RateBurst, "rrl-burst", 0, "RRL token-bucket burst (0 = same as -rrl)")
		flag.IntVar(&s.RateSlip, "rrl-slip", 0, "answer every Nth rate-limited query with TC=1 (0 = default 2, negative = never)")
	}
	return s
}

// Notify returns ctx, ended by SIGINT or SIGTERM too, for Run. A command
// calls it before it prints anything, so that a signal sent as soon as
// its first line is read drains the servers rather than meeting Go's
// default handling, which kills the process.
func (s *Serving) Notify(ctx context.Context) context.Context {
	ctx, s.stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	return ctx
}

// Run is a server's life after it listens: when ctx ends — on Notify's
// signals — it drains the servers at once within -drain, and only then
// prints rep, so the totals count the queries answered during the drain
// and the refreshes they started. A second signal kills the process. It
// is where a command's signal becomes the Shutdown that stops each
// server, and it returns their errors joined: the deadline's when a
// server had to be forced.
func (s *Serving) Run(ctx context.Context, rep Report, servers ...interface{ Shutdown(context.Context) error }) error {
	<-ctx.Done()
	if s.stop != nil {
		s.stop()
	}
	fmt.Println(rep.Prefix, "shutting down")
	drain, cancel := context.WithTimeout(context.Background(), s.Drain)
	defer cancel()
	errs := make(chan error, len(servers))
	for _, srv := range servers {
		go func() { errs <- srv.Shutdown(drain) }()
	}
	var err error
	for range servers {
		err = errors.Join(err, <-errs)
	}
	rep.Print()
	return err
}

// DebugFlag registers -debug, the debug listener's address.
func DebugFlag() *string {
	return flag.String("debug", "", "serve /metrics, /debug/pprof/ and /debug/invariants on this address (empty: none)")
}

// Debug serves reg on /metrics, the runtime's profiles on /debug/pprof/
// and the accounting identities on /debug/invariants at addr, a listener
// of its own, announced behind prefix. It returns the server to drain;
// with addr empty it opens no socket and Shutdown is a no-op.
func Debug(prefix, addr string, reg *obs.Registry) (*dohserver.Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ids := slices.Concat(serve.Identities, smart.Identities)
	mux.HandleFunc("/debug/invariants", func(w http.ResponseWriter, _ *http.Request) {
		diffs := obs.Check(reg, ids)
		if slices.Min(diffs) < 0 {
			w.WriteHeader(http.StatusInternalServerError)
		}
		for i, n := range diffs {
			verdict := "ok"
			if n < 0 {
				verdict = "broken"
			}
			fmt.Fprintf(w, "%s %s inflight=%d\n", verdict, ids[i].Name, n)
		}
	})
	srv := dohserver.NewServer(mux, nil)
	if addr == "" {
		return srv, nil
	}
	if err := srv.ListenAndServe(addr); err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	fmt.Printf("%s debug on http://%s/\n", prefix, srv.Addr())
	return srv, nil
}

// Report is a command's closing summary, each line behind Prefix.
type Report struct {
	Prefix string
	Cache  *cache.Cache
	Racer  *smart.Resolver
}

// Print waits out the cache's refreshes and the racer's probes, then
// prints the totals of whichever of the two is set.
func (r Report) Print() {
	if c := r.Cache; c != nil {
		c.Wait()
		st := c.Stats()
		fmt.Printf("%s cache: %d hits (%d negative, %d stale) / %d misses, %d evictions, %d entries\n",
			r.Prefix, st.Hits, st.NegativeHits, st.StaleHits, st.Misses, st.Evictions, c.Len())
		if st.Refreshes+st.RefreshFails+st.Prefetches > 0 {
			fmt.Printf("%s cache refresh: %d ok / %d failed, %d prefetches\n",
				r.Prefix, st.Refreshes, st.RefreshFails, st.Prefetches)
		}
	}
	if sm := r.Racer; sm != nil {
		sm.Close()
		st := sm.Stats()
		fmt.Printf("%s smart: %d remembered / %d races, %d probes, %d switches, %d evictions, %d destinations\n",
			r.Prefix, st.Remembered, st.Races, st.Probes, st.Switches, st.Evictions, st.Destinations)
		wins := sm.WinsByKind()
		for _, k := range resolver.Kinds() {
			if wins[k] > 0 {
				fmt.Printf("%s smart: %s won %d race(s)\n", r.Prefix, k, wins[k])
			}
		}
	}
}

// Endpoint is one upstream: a Do53 or DoT host:port, or a DoH URL.
type Endpoint struct {
	Kind resolver.Kind
	Addr string
}

// Forwarder is how a command reaches its upstream endpoints. Policy
// wraps each endpoint's transport (its Breaker a lone endpoint's only);
// Timeout bounds every client exchange.
// A racer gives each candidate a breaker tripping after Breaker
// failures (0: none) and keys its winner memory by name if PerName.
type Forwarder struct {
	Policy   resolver.Policy
	Timeout  time.Duration
	Breaker  int
	PerName  bool
	Stagger  time.Duration
	Insecure bool // skip DoH and DoT certificate checks
}

// ForwarderFlags registers the endpoint group: -insecure, -stagger.
func ForwarderFlags() *Forwarder {
	f := &Forwarder{}
	flag.BoolVar(&f.Insecure, "insecure", false, "skip TLS certificate verification on DoH and DoT endpoints (self-signed test servers)")
	flag.DurationVar(&f.Stagger, "stagger", 0, "racing: happy-eyeballs delay between candidate launches (0 = default)")
	return f
}

// Build returns the forwarder over the endpoints with an Addr: a lone
// one as its policy stack, two or more as a racer launching them in the
// order given, returned as well for its report.
func (f *Forwarder) Build(eps ...Endpoint) (resolver.Resolver, *smart.Resolver, error) {
	p, cfg := f.Policy, smart.Config{Registry: f.Policy.Registry}
	for _, ep := range eps {
		if ep.Addr == "" {
			continue
		}
		base, err := f.transport(ep)
		if err != nil {
			return nil, nil, err
		}
		cfg.Candidates = append(cfg.Candidates, smart.Candidate{Kind: ep.Kind, Resolver: base})
	}
	if len(cfg.Candidates) == 1 {
		p.Kind = cfg.Candidates[0].Kind
		return resolver.Apply(cfg.Candidates[0].Resolver, p), nil, nil
	}
	p.Breaker = nil
	for i, c := range cfg.Candidates {
		p.Kind = c.Kind
		cfg.Candidates[i].Resolver = resolver.Apply(c.Resolver, p)
		if f.Breaker > 0 {
			cfg.Candidates[i].Breaker = resolver.NewBreaker(resolver.BreakerPolicy{FailureThreshold: f.Breaker})
		}
	}
	cfg.Stagger = f.Stagger
	if f.PerName {
		cfg.KeyFunc = nameKey
	}
	sm, err := smart.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return sm, sm, nil
}

// transport is ep's bare client.
func (f *Forwarder) transport(ep Endpoint) (resolver.Resolver, error) {
	switch ep.Kind {
	case resolver.DoH:
		idle := 4 // below the hedge fan-out, the pool would re-pay handshakes
		if f.Policy.HedgeDelay > 0 {
			idle = max(idle, f.Policy.HedgeMax)
		}
		c, err := dohclient.New(ep.Addr, &dohclient.Options{InsecureTLS: f.Insecure, Timeout: f.Timeout, MaxIdleConnsPerHost: idle})
		return resolver.NewDoH(c), err
	case resolver.DoT:
		c := &dot.Client{Addr: ep.Addr, Timeout: f.Timeout}
		if f.Insecure {
			c.TLSConfig = tlsutil.InsecureClientConfig()
		}
		return resolver.NewDoT(c), nil
	}
	return resolver.NewDo53(ep.Addr, &dnsclient.Client{Timeout: f.Timeout}), nil
}

// nameKey keys winner memory by question name: zone cuts route before
// the forwarder, so the name is the destination.
func nameKey(q *dnswire.Message) string {
	if len(q.Questions) == 0 {
		return ""
	}
	return string(q.Questions[0].Name)
}
