package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"time"

	"repro/internal/authserver"
	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/dot"
	"repro/internal/obs"
	"repro/internal/recursive"
	"repro/internal/resolver"
	"repro/internal/tlsutil"
)

const (
	zoneName = "a.com."
	loopback = "127.0.0.1:0"
	hotNames = 1024
)

// answerAddr is what the zone's wildcard resolves to; every verified
// answer carries exactly this address.
var answerAddr = netip.MustParseAddr("203.0.113.9")

// stackConfig varies what tests need to vary; the zero value is the
// stack the benchmark measures.
type stackConfig struct {
	// CacheEntries sizes the answer cache; 0 is the production default
	// (65536). The smoke test shrinks it to keep pre-fill short.
	CacheEntries int
	// Upstream replaces the forwarder to the authoritative server (the
	// failing-upstream test).
	Upstream recursive.Upstream
	// Tracer, when set, puts a span recorder at every seam the harness
	// assembles (S2-S5).
	Tracer *tracer
}

// stack is the live loopback system under test, assembled the way
// cmd/dohsrv and cmd/recursor assemble theirs: authserver <- Do53
// policy stack <- caching recursive resolver <- DoH, DoT and Do53
// fronts on real 127.0.0.1 sockets.
type stack struct {
	auth    *authserver.Server
	cache   *cache.Cache
	res     *recursive.Resolver
	handler *dohserver.Handler
	httpSrv *http.Server
	httpErr chan error
	dotSrv  *dot.Server
	do53Srv *recursive.Server

	dohURL   string
	dotAddr  string
	do53Addr string
}

func measurementZone() (*authserver.Zone, error) {
	origin := dnswire.NewName(zoneName)
	zone := authserver.NewZone(origin)
	if err := zone.SetSOA(dnswire.NewName("ns1."+zoneName), dnswire.NewName("hostmaster."+zoneName), 2021042901); err != nil {
		return nil, err
	}
	for _, rr := range []dnswire.ResourceRecord{
		{Name: origin, TTL: 3600, Data: dnswire.NSRecord{NS: dnswire.NewName("ns1." + zoneName)}},
		{Name: dnswire.NewName("*." + zoneName), TTL: 3600, Data: dnswire.ARecord{Addr: answerAddr}},
	} {
		if err := zone.Add(rr); err != nil {
			return nil, err
		}
	}
	return zone, nil
}

// cachedAnswer builds the message the resolver would have cached for
// name after one trip to the authoritative server.
func cachedAnswer(name dnswire.Name) *dnswire.Message {
	m := dnswire.NewQuery(0, name, dnswire.TypeA).Reply()
	m.Header.RecursionAvailable = true
	m.Answers = []dnswire.ResourceRecord{{
		Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.ARecord{Addr: answerAddr},
	}}
	return m
}

func hotName(i int) dnswire.Name {
	return dnswire.Name(fmt.Sprintf("h%04d.%s", i, zoneName))
}

// prefill fills the cache to capacity through its public Put, so the
// heap looks like a resolver that has been up for a while and every
// later insert evicts, then inserts the hot names last so they
// survive.
func prefill(c *cache.Cache, capacity int) error {
	for i := 0; c.Len() < capacity; {
		if i > 4*capacity {
			return fmt.Errorf("cache holds %d of %d entries after %d inserts", c.Len(), capacity, i)
		}
		for end := i + 1024; i < end; i++ {
			name := dnswire.Name(fmt.Sprintf("f%07d.fill.%s", i, zoneName))
			c.Put(name, dnswire.TypeA, cachedAnswer(name))
		}
	}
	for i := 0; i < hotNames; i++ {
		name := hotName(i)
		c.Put(name, dnswire.TypeA, cachedAnswer(name))
	}
	return nil
}

func newStack(cfg stackConfig) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.shutdown()
		}
	}()

	zone, err := measurementZone()
	if err != nil {
		return nil, err
	}
	s.auth = authserver.NewServer(zone)
	if err := s.auth.ListenAndServe(loopback); err != nil {
		return nil, fmt.Errorf("authserver: %w", err)
	}

	reg := obs.NewRegistry()
	s.cache = cache.New(cache.Config{MaxEntries: cfg.CacheEntries})
	s.cache.Instrument(reg, "cache")
	s.res = recursive.New(recursive.WrapCache(s.cache))

	up := cfg.Upstream
	if up == nil {
		transport := resolver.NewDo53(s.auth.Addr(), nil)
		if cfg.Tracer != nil {
			transport = cfg.Tracer.resolver(seamTransport, transport)
		}
		up = resolver.UpstreamAdapter{R: resolver.Apply(transport, resolver.Policy{
			Retry:          &resolver.RetryPolicy{MaxAttempts: 2},
			AttemptTimeout: 3 * time.Second,
			Registry:       reg,
			Kind:           resolver.Do53,
		})}
	}
	if cfg.Tracer != nil {
		up = cfg.Tracer.upstream(up)
	}
	s.res.AddZone(dnswire.NewName(zoneName), up)

	capacity := cfg.CacheEntries
	if capacity == 0 {
		capacity = 65536
	}
	if err := prefill(s.cache, capacity); err != nil {
		return nil, err
	}

	// DoH front: the dohserver mux in an http.Server over a
	// self-signed certificate, timeouts as in cmd/dohsrv.
	s.handler = dohserver.NewHandler(s.res)
	var httpHandler http.Handler = s.handler.Mux()
	if cfg.Tracer != nil {
		httpHandler = cfg.Tracer.httpHandler(httpHandler)
	}
	tlsCfg, err := tlsutil.ServerConfig(loopback)
	if err != nil {
		return nil, fmt.Errorf("DoH certificate: %w", err)
	}
	ln, err := net.Listen("tcp", loopback)
	if err != nil {
		return nil, fmt.Errorf("DoH listener: %w", err)
	}
	s.httpSrv = &http.Server{
		Handler:      httpHandler,
		TLSConfig:    tlsCfg,
		ReadTimeout:  15 * time.Second,
		WriteTimeout: 15 * time.Second,
	}
	s.httpErr = make(chan error, 1)
	go func() { s.httpErr <- s.httpSrv.ServeTLS(ln, "", "") }()
	s.dohURL = "https://" + ln.Addr().String() + dohserver.DefaultPath

	// DoT front on the serve engine's stream path.
	var dotHandler dot.Handler = s.res
	if cfg.Tracer != nil {
		dotHandler = cfg.Tracer.dotHandler(dotHandler)
	}
	dotCfg, err := tlsutil.ServerConfig(loopback)
	if err != nil {
		return nil, fmt.Errorf("DoT certificate: %w", err)
	}
	s.dotSrv = dot.NewServer(dotHandler, dotCfg)
	if err := s.dotSrv.ListenAndServe(loopback); err != nil {
		return nil, fmt.Errorf("DoT listener: %w", err)
	}
	s.dotAddr = s.dotSrv.Addr()

	// Do53 front on the serve engine's packet path (dispatch mode).
	s.do53Srv = recursive.NewServer(s.res)
	if err := s.do53Srv.ListenAndServe(loopback); err != nil {
		return nil, fmt.Errorf("Do53 listener: %w", err)
	}
	s.do53Addr = s.do53Srv.Addr()
	return s, nil
}

// shutdown stops every listener and waits for the serving goroutines.
func (s *stack) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			s.httpSrv.Close()
		}
		if err := <-s.httpErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bench: DoH server:", err)
		}
	}
	report := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: shutdown:", err)
		}
	}
	if s.dotSrv != nil {
		report(s.dotSrv.Shutdown(ctx))
	}
	if s.do53Srv != nil {
		report(s.do53Srv.Shutdown(ctx))
	}
	if s.auth != nil {
		report(s.auth.Shutdown(ctx))
	}
	if s.cache != nil {
		s.cache.Wait()
	}
}
