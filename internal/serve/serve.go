// Package serve is the unified DNS serving engine. Every socket-facing
// server in the reproduction (the authoritative server, the recursive
// resolver's Do53 front end, and the DoT front end) runs on this one
// engine instead of maintaining its own accept/read loop, so the
// paper's server-side story — resolver points of presence absorbing
// encrypted-DNS traffic from tens of thousands of clients — has a
// single fast path to optimise and a single lifecycle API to drive.
//
// The engine separates transport mechanics from DNS semantics:
//
//   - A PacketHandler answers datagram (UDP) queries wire-in/wire-out:
//     it receives the raw query bytes and appends the raw response to a
//     scratch slice the engine owns. The engine shards the UDP socket
//     across Options.Listeners reader loops (SO_REUSEPORT where the
//     platform supports it, a shared socket otherwise) and moves
//     datagrams in recvmmsg/sendmmsg-shaped batches of Options.BatchSize
//     with a portable one-at-a-time fallback.
//   - A StreamHandler answers queries carried over 2-byte length-framed
//     TCP or TLS connections (RFC 1035 §4.2.2, RFC 7858). The engine
//     owns accept loops, per-connection framing, idle deadlines, and
//     connection-lifetime scratch.
//
// Lifecycle is context-aware: New binds and starts serving, Serve
// blocks until the context is cancelled, and Shutdown drains in-flight
// queries before closing (forcing the issue when its context expires).
// The servers built on it (authserver, recursive, dot) pass that
// lifecycle through: NewServer, ListenAndServe, Addr, Serve, Shutdown.
package serve

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/deadline"
	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/serve/batchio"
)

// PacketHandler answers one datagram query in wire format. raw holds
// the query exactly as read from the socket; the response is appended
// to out (engine-owned scratch with len 0) and returned. Returning a
// nil or empty slice — or an error — drops the query without a
// response, which is the correct reaction to malformed or rate-limited
// input on UDP. src is the query's source address as a value (IPv4
// sources unmapped); a handler that wants a net.Addr to keep builds one
// with net.UDPAddrFromAddrPort. Handlers must not retain raw or out
// past the call, and ctx is theirs only until they return: with a
// QueryTimeout the engine hands every query of a worker the same
// deadline.Lazy, reset per query and stopped — cancelling whatever was
// derived from it — when the handler returns.
type PacketHandler interface {
	ServePacket(ctx context.Context, out, raw []byte, src netip.AddrPort) ([]byte, error)
}

// PacketHandlerFunc adapts a function to PacketHandler.
type PacketHandlerFunc func(ctx context.Context, out, raw []byte, src netip.AddrPort) ([]byte, error)

// ServePacket implements PacketHandler.
func (f PacketHandlerFunc) ServePacket(ctx context.Context, out, raw []byte, src netip.AddrPort) ([]byte, error) {
	return f(ctx, out, raw, src)
}

// StreamHandler answers one query from a 2-byte length-framed TCP or
// TLS stream. The engine strips the frame from the query and adds it
// to the response, writing both in a single segment when the response
// fits the handler's scratch. Returning nil (or an error) closes the
// connection, mirroring how a DNS server treats an unparseable framed
// message. src is the connection's remote address; ctx follows the
// PacketHandler rule.
type StreamHandler interface {
	ServeMessage(ctx context.Context, out, raw []byte, src net.Addr) ([]byte, error)
}

// StreamHandlerFunc adapts a function to StreamHandler.
type StreamHandlerFunc func(ctx context.Context, out, raw []byte, src net.Addr) ([]byte, error)

// ServeMessage implements StreamHandler.
func (f StreamHandlerFunc) ServeMessage(ctx context.Context, out, raw []byte, src net.Addr) ([]byte, error) {
	return f(ctx, out, raw, src)
}

// Resolver answers decoded queries. It is what Answer fronts: a
// *recursive.Resolver satisfies it structurally.
type Resolver interface {
	Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error)
}

// CachedResolver is the upgrade a Resolver may offer, checked by type
// assertion the way io.Copy looks for io.WriterTo; *recursive.Resolver
// offers it. ResolveInto answers a cache hit in dst, storage the caller
// owns and the resolver never retains, and Cache lends the decode the
// cache's spelling of the question name. It is an upgrade rather than
// part of Resolver because dot.Handler is Resolver, and wrappers that
// implement only Resolve (a tracing one, say) must keep working: they
// take the plain path.
type CachedResolver interface {
	ResolveInto(ctx context.Context, q, dst *dnswire.Message) (*dnswire.Message, error)
	Cache() *cache.Cache
}

// Exchange is one query's storage on a server front: the decoded query,
// the answer a cache hit is copied into and the scratch the decode looks
// the question name up with. Through a CachedResolver a hit allocates
// nothing from query bytes to answer, once a reused Exchange's storage
// has grown. Answer pools its own; a front that decodes and packs itself
// (the DoH handler) keeps one per request, pooled, and must not let the
// answer outlive it.
type Exchange struct {
	// Query is what Decode decoded.
	Query dnswire.Message

	answer dnswire.Message
	known  dnswire.Message // the cache's spelling of the question name
	name   [dnswire.NameBufSize]byte
}

// Decode decodes raw into x.Query. Through a CachedResolver, a question
// name the cache holds an entry for takes the cache's string rather than
// a fresh one.
func (x *Exchange) Decode(raw []byte, r Resolver) error {
	cr, ok := r.(CachedResolver)
	if !ok {
		return dnswire.UnpackInto(raw, &x.Query)
	}
	var known dnswire.Name
	if name, typ, ok := dnswire.PeekQuestion(raw, &x.name); ok {
		known = cr.Cache().KeyName(name, typ)
	}
	x.known.Questions = append(x.known.Questions[:0], dnswire.Question{Name: known})
	return dnswire.UnpackReplyInto(raw, &x.Query, &x.known)
}

// Resolve answers x.Query: into x's own storage through a
// CachedResolver, with r.Resolve otherwise, and a failed resolution as
// SERVFAIL built in x's storage. The answer is read-only and lives until
// x is decoded into again.
func (x *Exchange) Resolve(ctx context.Context, r Resolver) *dnswire.Message {
	var resp *dnswire.Message
	var err error
	if cr, ok := r.(CachedResolver); ok {
		resp, err = cr.ResolveInto(ctx, &x.Query, &x.answer)
	} else {
		resp, err = r.Resolve(ctx, &x.Query)
	}
	if err != nil {
		resp = x.Query.ReplyInto(&x.answer)
		resp.Header.RCode = dnswire.RCodeServFail
		resp.Header.RecursionAvailable = true
	}
	return resp
}

// Reusable reports whether x is worth pooling: one whose sections
// ballooned (a hostile query, a huge answer) is cheaper to drop than to
// pin, by dnswire.PutMessage's rule.
func (x *Exchange) Reusable() bool {
	for _, m := range [2]*dnswire.Message{&x.Query, &x.answer} {
		if cap(m.Questions) > 64 || cap(m.Answers) > 512 ||
			cap(m.Authorities) > 512 || cap(m.Additionals) > 512 {
			return false
		}
	}
	return true
}

var exchanges = sync.Pool{New: func() any { return new(Exchange) }}

// MaxStreamPayload is the largest message a 2-byte length prefix can
// frame: Answer's limit on the stream path.
const MaxStreamPayload = 0xffff

// Answer is the whole of a handler that fronts a Resolver, for either
// path: decode raw, resolve, turn a failed resolution into SERVFAIL, and
// pack — once — onto out, truncating (TC=1) only an answer over limit
// bytes: dnswire.MaxUDPPayload for a PacketHandler, so that the client
// comes back over the stream side, MaxStreamPayload for a StreamHandler.
// Input that is not a query with a question gets the handlers' refusal,
// a nil response (dropped on UDP, connection closed on a stream).
func Answer(ctx context.Context, r Resolver, out, raw []byte, limit int) ([]byte, error) {
	// The Exchange is pooled; a resolver's own response never is —
	// caches may retain it.
	x := exchanges.Get().(*Exchange)
	defer func() {
		if x.Reusable() {
			exchanges.Put(x)
		}
	}()
	if err := x.Decode(raw, r); err != nil ||
		x.Query.Header.Response || len(x.Query.Questions) == 0 {
		return nil, nil
	}
	wire, err := x.Resolve(ctx, r).AppendPackLimit(out, limit)
	if err != nil {
		return nil, nil
	}
	return wire, nil
}

// DefaultBatchSize is the datagrams-per-syscall budget used when
// Options.BatchSize is zero. 32 covers the socket backlog a busy
// loopback benchmark accumulates while one batch is being answered.
const DefaultBatchSize = 32

// Options configures a Server. The zero value serves nothing; at least
// one of Packet and Stream must be set.
type Options struct {
	// Packet, when set, serves UDP datagrams on the bound address.
	Packet PacketHandler
	// Stream, when set, serves 2-byte-framed TCP (or TLS, with
	// TLSConfig) connections. When both Packet and Stream are set the
	// engine binds UDP and TCP on the same port, retrying ephemeral
	// ports until a matching pair is free.
	Stream StreamHandler
	// TLSConfig wraps accepted stream connections in TLS (DoT).
	TLSConfig *tls.Config

	// Listeners is the number of parallel intake loops: UDP socket
	// shards (one socket each under SO_REUSEPORT, readers on a shared
	// socket otherwise) and stream accept goroutines. 0 means 1; set
	// runtime.NumCPU() for per-core sharding.
	Listeners int
	// BatchSize caps datagrams moved per batched read/write syscall.
	// 0 uses DefaultBatchSize; 1 forces the portable loop fallback.
	BatchSize int
	// Concurrency, when positive, dispatches each datagram to a
	// per-listener pool of that many worker goroutines instead of
	// answering inline on the reader loop. Use it when the handler
	// blocks (a recursive resolver doing upstream I/O); leave it zero
	// for CPU-bound handlers (an authoritative zone lookup), where the
	// inline path answers whole batches without a single goroutine
	// switch.
	Concurrency int

	// QueryTimeout bounds each handler invocation with a deadline
	// context that costs a timer only when the handler waits on it
	// (deadline.Lazy). 0 passes the engine's base context.
	QueryTimeout time.Duration
	// StreamIdleTimeout closes stream connections idle between frames
	// (default 30s).
	StreamIdleTimeout time.Duration

	// Protection holds the overload-protection knobs: admission
	// control (MaxInflight), per-prefix UDP response rate limiting
	// (RateLimit/RateBurst/RateSlip), and stream governance (MaxConns,
	// MaxConnInflight, MaxFrameBytes, StreamWriteTimeout,
	// StreamReadTimeout). See overload.go; the zero value disables
	// everything except per-query panic recovery.
	Protection

	// Registry receives engine metrics: serve_packets_total,
	// serve_responses_total, serve_dropped_total, serve_batches_total,
	// the serve_batch_size gauge, stream counters, one
	// serve_listener_<i>_queue_depth gauge per listener (dispatch
	// backlog in dispatch mode, last batch size inline), and the
	// overload-protection surface: serve_shed_total,
	// serve_ratelimit_{dropped,slipped}_total, serve_panic_total,
	// serve_conns_rejected_total, serve_frame_oversize_total, and the
	// serve_inflight gauge. Nil records into a private registry.
	Registry *obs.Registry
	// Logf, when set, receives one line per dropped packet or
	// connection-level failure.
	Logf func(format string, args ...any)
}

// Server is the serving engine. Create one with New; it is not usable
// as a zero value.
type Server struct {
	opts Options

	udpConns  []*net.UDPConn
	sharedUDP bool // Listeners readers share udpConns[0]
	tcpLn     net.Listener
	addr      string

	baseCtx   context.Context
	cancelAll context.CancelFunc

	wg       sync.WaitGroup
	draining atomic.Bool

	// inflight is the admission-control budget counter (admit/release
	// in overload.go); limiter is the UDP response rate limiter, nil
	// unless Options.RateLimit is positive.
	inflight atomic.Int64
	limiter  *rrlLimiter

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	shutdownOnce sync.Once
	shutdownCh   chan struct{}
	waitOnce     sync.Once
	finished     chan struct{}
	closeOnce    sync.Once
	closeErr     error

	metrics metrics
}

// metrics is the engine's obs surface.
type metrics struct {
	packets    *obs.Counter
	responses  *obs.Counter
	dropped    *obs.Counter
	batches    *obs.Counter
	batchSize  *obs.Gauge
	streams    *obs.Counter
	streamQs   *obs.Counter
	queueDepth []*obs.Gauge // one per listener

	// Overload-protection surface (see overload.go). Every query read
	// lands in exactly one of responses, dropped, shed, rlDropped, or
	// rlSlipped — the accounting identity TestOverloadSoak pins.
	shed      *obs.Counter
	rlDropped *obs.Counter
	rlSlipped *obs.Counter
	panics    *obs.Counter
	rejConns  *obs.Counter
	oversize  *obs.Counter
	inflightG *obs.Gauge
}

// New binds addr and starts serving with the given options. The
// returned server is live: Addr reports the bound address and queries
// are answered until Shutdown or Close. Use Serve to block a goroutine
// on the serving lifetime.
func New(addr string, opts Options) (*Server, error) {
	if opts.Packet == nil && opts.Stream == nil {
		return nil, errors.New("serve: Options needs a Packet or Stream handler")
	}
	if opts.Listeners <= 0 {
		opts.Listeners = 1
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.StreamIdleTimeout <= 0 {
		opts.StreamIdleTimeout = 30 * time.Second
	}
	switch {
	case opts.StreamWriteTimeout == 0:
		// A slow-reading client must not pin a connection goroutine on
		// conn.Write forever once the kernel buffers fill, so the write
		// deadline defaults on, mirroring the idle deadline.
		opts.StreamWriteTimeout = opts.StreamIdleTimeout
	case opts.StreamWriteTimeout < 0:
		opts.StreamWriteTimeout = 0
	}
	if opts.MaxFrameBytes <= 0 || opts.MaxFrameBytes > 0xffff {
		opts.MaxFrameBytes = 0xffff
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opts:       opts,
		shutdownCh: make(chan struct{}),
		finished:   make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
	}
	if opts.RateLimit > 0 {
		s.limiter = newRRLLimiter(opts.RateLimit, opts.RateBurst, opts.RateSlip)
	}
	s.baseCtx, s.cancelAll = context.WithCancel(context.Background())
	s.metrics = metrics{
		packets:   reg.Counter("serve_packets_total"),
		responses: reg.Counter("serve_responses_total"),
		dropped:   reg.Counter("serve_dropped_total"),
		batches:   reg.Counter("serve_batches_total"),
		batchSize: reg.Gauge("serve_batch_size"),
		streams:   reg.Counter("serve_streams_total"),
		streamQs:  reg.Counter("serve_stream_queries_total"),
		shed:      reg.Counter("serve_shed_total"),
		rlDropped: reg.Counter("serve_ratelimit_dropped_total"),
		rlSlipped: reg.Counter("serve_ratelimit_slipped_total"),
		panics:    reg.Counter("serve_panic_total"),
		rejConns:  reg.Counter("serve_conns_rejected_total"),
		oversize:  reg.Counter("serve_frame_oversize_total"),
		inflightG: reg.Gauge("serve_inflight"),
	}
	for i := 0; i < opts.Listeners; i++ {
		s.metrics.queueDepth = append(s.metrics.queueDepth,
			reg.Gauge(fmt.Sprintf("serve_listener_%d_queue_depth", i)))
	}

	if err := s.bind(addr); err != nil {
		return nil, err
	}
	if s.tcpLn != nil && opts.TLSConfig != nil {
		s.tcpLn = tls.NewListener(s.tcpLn, opts.TLSConfig)
	}
	s.start()
	return s, nil
}

// bind sets up the listeners. With both handlers present, UDP and TCP
// share one port (the authoritative-server shape); an ephemeral port
// that cannot be paired is retried with a fresh one.
func (s *Server) bind(addr string) error {
	switch {
	case s.opts.Packet != nil && s.opts.Stream != nil:
		var lastErr error
		for attempt := 0; attempt < 16; attempt++ {
			conns, shared, err := listenUDPShards(addr, s.opts.Listeners)
			if err != nil {
				return err
			}
			port := conns[0].LocalAddr().String()
			ln, err := net.Listen("tcp", port)
			if err != nil {
				for _, c := range conns {
					c.Close()
				}
				lastErr = err
				if !hasEphemeralPort(addr) {
					return err
				}
				continue
			}
			s.udpConns, s.sharedUDP, s.tcpLn = conns, shared, ln
			s.addr = port
			return nil
		}
		return fmt.Errorf("serve: no UDP/TCP port pair available: %w", lastErr)
	case s.opts.Packet != nil:
		conns, shared, err := listenUDPShards(addr, s.opts.Listeners)
		if err != nil {
			return err
		}
		s.udpConns, s.sharedUDP = conns, shared
		s.addr = conns[0].LocalAddr().String()
		return nil
	default:
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		s.tcpLn = ln
		s.addr = ln.Addr().String()
		return nil
	}
}

// listenUDPShards binds n UDP sockets to addr. Where SO_REUSEPORT is
// available each shard gets its own socket (and the kernel spreads
// flows across them); otherwise all shards read one shared socket,
// which still overlaps handler work with socket waits.
func listenUDPShards(addr string, n int) ([]*net.UDPConn, bool, error) {
	if n == 1 || !batchio.ReusePortAvailable {
		uaddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, false, err
		}
		c, err := net.ListenUDP("udp", uaddr)
		if err != nil {
			return nil, false, err
		}
		return []*net.UDPConn{c}, n > 1, nil
	}
	conns := make([]*net.UDPConn, 0, n)
	first, err := batchio.ListenUDPReusePort(addr)
	if err != nil {
		return nil, false, err
	}
	conns = append(conns, first)
	bound := first.LocalAddr().String()
	for i := 1; i < n; i++ {
		c, err := batchio.ListenUDPReusePort(bound)
		if err != nil {
			// REUSEPORT bind raced (or is restricted); fall back to the
			// shared-socket layout on what we have.
			for _, cc := range conns[1:] {
				cc.Close()
			}
			return conns[:1], true, nil
		}
		conns = append(conns, c)
	}
	return conns, false, nil
}

func hasEphemeralPort(addr string) bool {
	_, port, err := net.SplitHostPort(addr)
	return err == nil && (port == "0" || port == "")
}

// start launches the intake loops.
func (s *Server) start() {
	for i := 0; i < s.opts.Listeners; i++ {
		if s.opts.Packet != nil {
			conn := s.udpConns[0]
			if !s.sharedUDP && i < len(s.udpConns) {
				conn = s.udpConns[i]
			}
			s.wg.Add(1)
			go s.packetLoop(i, conn)
		}
		if s.opts.Stream != nil {
			s.wg.Add(1)
			go s.acceptLoop()
		}
	}
}

// Addr returns the bound address ("" before a successful bind). With
// both handlers the UDP and TCP listeners share this address.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.addr
}

// Serve blocks until ctx is cancelled or Shutdown/Close is called
// elsewhere, then waits for the drain to complete. Cancelling ctx
// triggers a full graceful drain (intake stops immediately; in-flight
// queries finish). It returns nil after a clean shutdown.
func (s *Server) Serve(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return s.Shutdown(context.Background())
	case <-s.shutdownCh:
		<-s.finished
		return nil
	}
}

// Shutdown gracefully stops the server: intake stops at once, then
// in-flight queries (the batch being answered, queued dispatch work,
// the frame a stream connection is serving) run to completion and
// their responses are written. If ctx expires first, query contexts
// are cancelled and every socket is force-closed; Shutdown then still
// waits for the loops to unwind before returning ctx.Err(). Shutdown
// is idempotent and safe to call from any goroutine.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginShutdown()
	select {
	case <-s.finished:
	case <-ctx.Done():
		s.forceClose()
		<-s.finished
		s.closeListeners()
		return ctx.Err()
	}
	s.closeListeners()
	return nil
}

// Close force-stops the server without draining: query contexts are
// cancelled, sockets and connections close immediately, and Close
// waits for the loops to unwind. Prefer Shutdown.
func (s *Server) Close() error {
	s.beginShutdown()
	s.forceClose()
	<-s.finished
	s.closeListeners()
	return s.closeErr
}

// beginShutdown flips the server into draining mode and wakes every
// blocked intake point without closing the sockets the in-flight
// responses still need.
func (s *Server) beginShutdown() {
	s.shutdownOnce.Do(func() {
		s.draining.Store(true)
		close(s.shutdownCh)
		past := time.Unix(1, 0)
		for _, c := range s.udpConns {
			c.SetReadDeadline(past)
		}
		if s.tcpLn != nil {
			s.tcpLn.Close()
		}
		s.connMu.Lock()
		for c := range s.conns {
			c.SetReadDeadline(past)
		}
		s.connMu.Unlock()
	})
	s.waitOnce.Do(func() {
		go func() {
			s.wg.Wait()
			close(s.finished)
		}()
	})
}

// forceClose abandons the drain: cancel in-flight handler contexts and
// close everything.
func (s *Server) forceClose() {
	s.cancelAll()
	s.closeListeners()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
}

func (s *Server) closeListeners() {
	s.closeOnce.Do(func() {
		var err error
		for _, c := range s.udpConns {
			err = errors.Join(err, ignoreClosed(c.Close()))
		}
		if s.tcpLn != nil {
			err = errors.Join(err, ignoreClosed(s.tcpLn.Close()))
		}
		s.closeErr = err
	})
}

func ignoreClosed(err error) error {
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// queryContext starts one query's context on lazy, which the calling
// goroutine owns and reuses for its next query; endQuery ends it.
// Without a QueryTimeout the base context is shared. Either way the
// packet and stream paths allocate nothing per query for it, and arm no
// timer unless the handler waits on Done.
func (s *Server) queryContext(lazy *deadline.Lazy) context.Context {
	if s.opts.QueryTimeout <= 0 {
		return s.baseCtx
	}
	lazy.Reset(s.baseCtx, time.Now().Add(s.opts.QueryTimeout))
	return lazy
}

func (s *Server) endQuery(lazy *deadline.Lazy) {
	if s.opts.QueryTimeout > 0 {
		lazy.Stop()
	}
}

// registerConn admits a stream connection. ok is false when the
// connection must be closed; rejected distinguishes an over-MaxConns
// refusal (keep accepting) from draining (stop accepting).
func (s *Server) registerConn(c net.Conn) (ok, rejected bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining.Load() {
		return false, false
	}
	if max := s.opts.MaxConns; max > 0 && len(s.conns) >= max {
		s.metrics.rejConns.Inc()
		return false, true
	}
	s.conns[c] = struct{}{}
	return true, false
}

func (s *Server) unregisterConn(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}
