// Package dot implements DNS-over-TLS (RFC 7858): DNS messages with
// two-byte length framing over a TLS session on port 853. The paper
// positions DoH against DoT (Section 2) and compares its findings
// with Doan et al.'s RIPE-Atlas DoT study; this package supplies the
// protocol so the extension experiment in the benchmark harness can
// measure Do53 vs DoT vs DoH on the same substrate.
package dot

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Timing is the per-phase breakdown of a DoT exchange; zero DNSLookup,
// Connect and TLSHandshake on a pooled connection.
type Timing = dnsclient.Timing

// Client is a DoT client over a pool of persistent connections (RFC 7858
// recommends reuse), one exchange at a time per connection: a query
// issued beside a slow one takes a second connection instead of waiting.
// Dial, pool, deadline and redial rules are the stream clients' shared
// ones (internal/dnsclient/conn.go). It is safe for concurrent use.
type Client struct {
	// Addr is the server host:port.
	Addr string
	// TLSConfig configures the session; nil uses sane defaults with
	// ServerName derived from Addr.
	TLSConfig *tls.Config
	// Timeout bounds each exchange, connection set-up included (default
	// 10s).
	Timeout time.Duration

	pool dnsclient.Pool
}

// defaultTLS is the session configuration of a Client without one; the
// dial fills in the ServerName from Addr.
var defaultTLS = &tls.Config{MinVersion: tls.VersionTLS12}

// Query resolves (name, typ) over DoT.
func (c *Client) Query(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, Timing, error) {
	q := dnswire.NewQuery(dnsclient.RandomID(), name, typ)
	return c.Exchange(ctx, q)
}

// Exchange sends q on a pooled connection when one is idle, else on a
// fresh one, and keeps the connection only if the exchange succeeded.
func (c *Client) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	cfg, timeout := c.TLSConfig, c.Timeout
	if cfg == nil {
		cfg = defaultTLS
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	var resp *dnswire.Message
	a := c.pool.Begin(ctx, c.Addr, cfg, timeout)
	for a.Next() {
		var err error
		resp, err = dnsclient.ExchangeFramed(a.Conn, q)
		a.Done(true, err)
	}
	if err := a.Err(); err != nil {
		return nil, a.Timing, fmt.Errorf("dot: %w", err)
	}
	return resp, a.Timing, nil
}

// Close drops the pooled connections.
func (c *Client) Close() error {
	c.pool.CloseIdle()
	return nil
}

// Handler answers decoded DNS queries on behalf of the server: what
// serve.Answer fronts. A *recursive.Resolver satisfies it structurally.
type Handler = serve.Resolver

// Server serves DoT by delegating to a Handler (typically a caching
// recursive resolver). Accept loops, TLS, framing, idle deadlines,
// per-connection scratch, and graceful drain all come from the serve
// engine; this type supplies decode → resolve → encode.
type Server struct {
	// Resolver answers decoded queries.
	Resolver Handler
	// TLSConfig must carry a certificate.
	TLSConfig *tls.Config

	// Protect configures the engine's overload protection (admission
	// budget, connection caps, write deadlines — see serve.Protection).
	// The zero value leaves every defense off.
	Protect serve.Protection
	// Registry files the engine's serve_* metrics; nil, a private one.
	Registry *obs.Registry

	engine *serve.Server
}

// NewServer builds a DoT server.
func NewServer(res Handler, cfg *tls.Config) *Server {
	return &Server{Resolver: res, TLSConfig: cfg}
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	if s.TLSConfig == nil || len(s.TLSConfig.Certificates) == 0 && s.TLSConfig.GetCertificate == nil {
		return errors.New("dot: server needs a TLS certificate")
	}
	engine, err := serve.New(addr, serve.Options{
		// Unparseable input closes the connection (serve.Answer's nil
		// response), matching RFC 7858 server behavior.
		Stream: serve.StreamHandlerFunc(func(ctx context.Context, out, raw []byte, _ net.Addr) ([]byte, error) {
			return serve.Answer(ctx, s.Resolver, out, raw, serve.MaxStreamPayload)
		}),
		TLSConfig:    s.TLSConfig,
		QueryTimeout: 10 * time.Second,
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

// Shutdown gracefully stops the server: accepting stops at once, the
// frame each connection is serving completes unless ctx expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.engine == nil {
		return nil
	}
	return s.engine.Shutdown(ctx)
}
