// Package recursive implements a caching recursive resolver. In this
// reproduction it plays two roles from the paper's world: the ISP
// "default resolver" that answers exit nodes' Do53 queries, and the
// backend recursion engine inside each DoH provider's point of
// presence. Upstream resolution is pluggable so the resolver runs
// both over real sockets and on the virtual network.
package recursive

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/serve"
)

// Upstream answers queries on behalf of the resolver. Implementations
// include real servers reached over any transport
// (resolver.UpstreamAdapter) and virtual-network authoritative nodes in
// the simulator.
//
// The ownership rule is resolver.Resolver's: the response's header and
// section slices belong to the caller, its names and RData may be
// shared. The Resolver edits the header, and once the cache and the
// asker have their copies it hands the response to dnswire.PutMessage.
type Upstream interface {
	// Resolve returns the authoritative response for q.
	Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error)
}

// UpstreamFunc adapts a function to the Upstream interface.
type UpstreamFunc func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error)

// Resolve implements Upstream.
func (f UpstreamFunc) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, q)
}

// ErrNoUpstream is returned when no upstream covers a query.
var ErrNoUpstream = errors.New("recursive: no upstream for query")

// Resolver is a caching recursive resolver. Zones map suffixes to
// upstreams (the longest matching suffix wins); Default handles
// everything else. Concurrent cache misses for the same (name, type)
// are deduplicated by the cache's singleflight (cache.Do): one upstream
// query runs, everyone shares the answer — the query-coalescing
// behaviour production resolvers use to survive request storms.
type Resolver struct {
	cache *cache.Cache
	mu    sync.RWMutex
	// zones is kept longest suffix first, so the first match wins.
	zones           []zoneRoute
	defaultUpstream Upstream
}

// zoneRoute sends queries under suffix (canonical form) to up.
type zoneRoute struct {
	suffix dnswire.Name
	up     Upstream
}

// New creates a resolver on c (nil for a cache of the default size).
// The resolver installs itself as the cache's refresher, so when the
// cache is configured for serve-stale or prefetch, background
// refreshes route through the same zone table as client queries, and
// coalesces misses on the cache's singleflight: one cache serves one
// resolver.
func New(c *cache.Cache) *Resolver {
	if c == nil {
		c = cache.New(cache.Config{})
	}
	r := &Resolver{cache: c}
	c.SetRefresher(r.refresh)
	return r
}

// WrapCache returns c. It stands in for the veneer type New used to
// take, for callers not yet moved to recursive.New(c).
func WrapCache(c *cache.Cache) *cache.Cache { return c }

// refresh is the cache's background-refresh hook: resolve (name, typ)
// upstream with a fresh query ID and recursor response stamps. The
// cache itself decides whether the answer is cacheable.
func (r *Resolver) refresh(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
	up := r.upstreamFor(name)
	if up == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoUpstream, name)
	}
	q := dnswire.NewQuery(dnsclient.RandomID(), name, typ)
	resp, err := up.Resolve(ctx, q)
	if err != nil {
		return nil, err
	}
	resp.Header.RecursionAvailable = true
	resp.Header.Authoritative = false
	return resp, nil
}

// Cache exposes the resolver's cache: inspection, cache.Instrument,
// and Wait on the way down.
func (r *Resolver) Cache() *cache.Cache { return r.cache }

// AddZone routes queries under suffix to up.
func (r *Resolver) AddZone(suffix dnswire.Name, up Upstream) {
	suffix = suffix.Canonical()
	route := zoneRoute{suffix: suffix, up: up}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, z := range r.zones {
		if z.suffix == suffix {
			r.zones[i] = route
			return
		}
	}
	r.zones = append(r.zones, route)
	sort.SliceStable(r.zones, func(i, j int) bool {
		return r.zones[i].suffix.NumLabels() > r.zones[j].suffix.NumLabels()
	})
}

// SetDefault routes unmatched queries to up.
func (r *Resolver) SetDefault(up Upstream) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.defaultUpstream = up
}

func (r *Resolver) upstreamFor(name dnswire.Name) Upstream {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, z := range r.zones {
		if name.IsSubdomainOf(z.suffix) {
			return z.up
		}
	}
	return r.defaultUpstream
}

// Resolve answers q, consulting the cache first. It is safe for
// concurrent use. The answer's sections are read-only.
func (r *Resolver) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return r.ResolveInto(ctx, q, nil)
}

// ResolveInto is Resolve answering in dst: a hit is copied into dst's own
// storage (cache.LookupInto), and so is a miss's answer, the upstream's
// message once the cache has its copy or a waiter's share of another
// query's flight. The answer is stamped with q's ID, RD flag and
// question, so a caller that reuses dst across queries pays nothing for
// either once dst has grown. A nil dst allocates the copy. Either way
// the query makes one cache lookup, and the answer's names and RData are
// read-only.
func (r *Resolver) ResolveInto(ctx context.Context, q, dst *dnswire.Message) (*dnswire.Message, error) {
	if len(q.Questions) == 0 {
		return nil, errors.New("recursive: query has no question")
	}
	question := q.Questions[0]
	// The hit path is lock-light end to end: the lookup takes only a
	// shard read lock (recency and popularity are per-entry atomics),
	// and stale hits hand the refresh to a detached background flight.
	resp, _ := r.cache.LookupInto(question.Name, question.Type, dst)
	if resp == nil {
		up := r.upstreamFor(question.Name)
		if up == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoUpstream, question.Name)
		}
		// Coalesce concurrent misses for the same question. A waiter that
		// gives up leaves the leader's resolution running, and an error is
		// handed to the waiters of that flight only, never kept.
		var shared bool
		var err error
		resp, shared, err = r.cache.Do(ctx, question.Name, question.Type, func() (*dnswire.Message, error) {
			return r.resolveMiss(ctx, up, q, dst)
		})
		if err != nil {
			return nil, err
		}
		if shared {
			resp = resp.CopyInto(dst)
		}
	}
	resp.Header.ID = q.Header.ID
	resp.Header.RecursionDesired = q.Header.RecursionDesired
	resp.Header.RecursionAvailable = true
	if len(resp.Questions) > 0 {
		// The asker's own spelling (RFC 1035 §4.1.2), not the one the
		// entry was cached under.
		resp.Questions[0] = question
	}
	return resp, nil
}

// resolveMiss performs the actual upstream resolution and caches it. It
// answers from a copy of the upstream's message in dst, and the
// upstream's message goes back to the pool.
func (r *Resolver) resolveMiss(ctx context.Context, up Upstream, q, dst *dnswire.Message) (*dnswire.Message, error) {
	resp, err := up.Resolve(ctx, q)
	if err != nil {
		return nil, err
	}
	resp.Header.RecursionAvailable = true
	resp.Header.Authoritative = false
	if resp.Header.RCode == dnswire.RCodeNoError || resp.Header.RCode == dnswire.RCodeNXDomain {
		question := q.Questions[0]
		r.cache.Put(question.Name, question.Type, resp)
	}
	answer := resp.CopyInto(dst)
	dnswire.PutMessage(resp)
	return answer, nil
}

// Server exposes a Resolver over UDP and, on the same port, TCP,
// acting as the "default resolver" an exit node's operating system
// points at. An answer over dnswire.MaxUDPPayload leaves the UDP side
// truncated (TC=1), as does every RateSlip'th query over a Protect rate
// limit, and the client's retry finds the TCP side. Transport mechanics
// run on the serve engine in dispatch mode: recursion blocks on
// upstream I/O, so each datagram goes to a worker pool instead of being
// answered inline on the reader loop.
type Server struct {
	Resolver *Resolver

	// Listeners and Concurrency tune the serving engine (see
	// serve.Options). Zero values pick the defaults; Concurrency
	// defaults to DefaultConcurrency because the handler blocks. Set
	// them before ListenAndServe.
	Listeners   int
	Concurrency int

	// Protect configures the engine's overload protection (admission
	// budget, RRL — see serve.Protection). A recursive handler blocks
	// on upstreams, so an admission budget is the difference between
	// shedding overload and queueing it into multi-second latency.
	Protect serve.Protection

	engine *serve.Server
}

// DefaultConcurrency is the per-listener resolver worker-pool size
// used when Server.Concurrency is zero.
const DefaultConcurrency = 64

// QueryTimeout bounds one client query end to end, including every
// upstream iteration the resolver makes on its behalf.
const QueryTimeout = 10 * time.Second

// NewServer wraps r in a Do53 server.
func NewServer(r *Resolver) *Server { return &Server{Resolver: r} }

// ListenAndServe binds addr, UDP and TCP, and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	conc := s.Concurrency
	if conc <= 0 {
		conc = DefaultConcurrency
	}
	// The context either handler gets already carries QueryTimeout (and
	// is cancelled early on a forced shutdown).
	engine, err := serve.New(addr, serve.Options{
		Packet: serve.PacketHandlerFunc(func(ctx context.Context, out, raw []byte, _ netip.AddrPort) ([]byte, error) {
			return serve.Answer(ctx, s.Resolver, out, raw, dnswire.MaxUDPPayload)
		}),
		Stream: serve.StreamHandlerFunc(func(ctx context.Context, out, raw []byte, _ net.Addr) ([]byte, error) {
			return serve.Answer(ctx, s.Resolver, out, raw, serve.MaxStreamPayload)
		}),
		Listeners:    s.Listeners,
		Concurrency:  conc,
		QueryTimeout: QueryTimeout,
		Protection:   s.Protect,
	})
	if err != nil {
		return err
	}
	s.engine = engine
	return nil
}

// Addr returns the bound address, or "" before ListenAndServe.
func (s *Server) Addr() string { return s.engine.Addr() }

// Serve blocks until ctx is cancelled, then drains gracefully. Call
// after ListenAndServe.
func (s *Server) Serve(ctx context.Context) error { return s.engine.Serve(ctx) }

// Shutdown gracefully stops the server: intake stops at once and
// in-flight resolutions complete unless ctx expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.engine == nil {
		return nil
	}
	return s.engine.Shutdown(ctx)
}
