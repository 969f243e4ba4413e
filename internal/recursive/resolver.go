// Package recursive implements a caching resolver that forwards each
// cache miss to the upstream of its longest matching zone suffix. It is
// the live stack's recursive hop: cmd/recursor runs it as a Do53
// default resolver, and cmd/dohsrv answers its DoH and DoT fronts from
// it. Upstream resolution is pluggable (Upstream).
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
	"repro/internal/obs"
	"repro/internal/serve"
)

// Upstream answers queries on behalf of the resolver. The commands'
// upstreams are servers reached over any transport
// (resolver.UpstreamAdapter); tests script theirs with UpstreamFunc.
//
// The ownership rule is resolver.Resolver's: the response's header and
// section slices belong to the caller, its names and RData may be
// shared. The Resolver edits the header, and once the cache has its
// copy it hands the response to its asker (Resolve) or, copied into the
// asker's storage (ResolveInto), to dnswire.PutMessage.
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
	c.SetRefresher(func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
		return r.fetch(ctx, dnswire.NewQuery(dnsclient.RandomID(), name, typ))
	})
	return r
}

// WrapCache returns c. It stands in for the veneer type New used to
// take, for callers not yet moved to recursive.New(c).
func WrapCache(c *cache.Cache) *cache.Cache { return c }

// fetch resolves q upstream, a client's miss or a background refresh,
// and stamps the answer as the recursor's own. The cache decides
// whether it is kept.
func (r *Resolver) fetch(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	name := q.Questions[0].Name
	up := r.upstreamFor(name)
	if up == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoUpstream, name)
	}
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
// concurrent use. The answer is the caller's, its names and RData
// read-only.
func (r *Resolver) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return r.ResolveInto(ctx, q, nil)
}

// ResolveInto is Resolve answering in dst, by cache.Answer: a hit, a
// waiter's share of another query's flight and the upstream's message
// once the cache has its copy are all copied into dst's own storage and
// stamped with q's ID, RD flag and question, so a caller that reuses dst
// across queries pays nothing for either once dst has grown. With a nil
// dst a hit allocates its copy and a miss keeps the upstream's message.
// Either way the query makes one cache lookup. The hit path is
// lock-light end to end: the lookup takes only a shard read lock, and
// stale hits hand the refresh to a detached background flight. A waiter
// that gives up leaves the leader's resolution running, and an error is
// handed to the waiters of that flight only, never kept.
func (r *Resolver) ResolveInto(ctx context.Context, q, dst *dnswire.Message) (*dnswire.Message, error) {
	if len(q.Questions) == 0 {
		return nil, errors.New("recursive: query has no question")
	}
	resp, _, err := r.cache.Answer(ctx, q, dst, r.fetch)
	return resp, err
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
	// Registry files the engine's serve_* metrics; nil, a private one.
	Registry *obs.Registry

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
		Registry:     s.Registry,
	})
	if err != nil {
		return err
	}
	s.engine = engine
	return nil
}

// Addr returns the bound address, or "" before ListenAndServe.
func (s *Server) Addr() string { return s.engine.Addr() }

// Shutdown gracefully stops the server: intake stops at once and
// in-flight resolutions complete unless ctx expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.engine == nil {
		return nil
	}
	return s.engine.Shutdown(ctx)
}
