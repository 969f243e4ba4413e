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
	"sync"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/serve"
)

// DefaultPort is the IANA-assigned DoT port.
const DefaultPort = 853

// Timing is the per-phase breakdown of a DoT exchange. DNSLookup is
// zero (Addr is a literal host:port: no bootstrap lookup to account), as
// are Connect and TLSHandshake on a pooled connection.
type Timing = dnsclient.Timing

// Client is a DoT client with a single pooled connection, mirroring
// stub-resolver behavior (RFC 7858 recommends connection reuse).
type Client struct {
	// Addr is the server host:port.
	Addr string
	// TLSConfig configures the session; nil uses sane defaults with
	// ServerName derived from Addr.
	TLSConfig *tls.Config
	// Timeout bounds each exchange (default 10s).
	Timeout time.Duration

	mu   sync.Mutex
	conn *tls.Conn
}

// Query resolves (name, typ) over DoT.
func (c *Client) Query(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, Timing, error) {
	q := dnswire.NewQuery(dnsclient.RandomID(), name, typ)
	return c.Exchange(ctx, q)
}

// Exchange sends q, reusing the pooled TLS connection when alive. On
// a dead pooled connection it redials once. A connection on which any
// I/O failed, freshly dialled or pooled, is never kept: the stream may
// still deliver the late reply, and the next query would read that.
func (c *Client) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, timing, err := c.exchangeLocked(ctx, q)
	if err != nil && timing.Reused {
		// The pooled connection died under us (and is closed by now);
		// retry on a fresh one.
		resp, timing, err = c.exchangeLocked(ctx, q)
	}
	return resp, timing, err
}

func (c *Client) exchangeLocked(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	var timing Timing
	start := time.Now()
	deadline := start.Add(c.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}

	if c.conn == nil {
		host, _, err := net.SplitHostPort(c.Addr)
		if err != nil {
			return nil, timing, fmt.Errorf("dot: bad address %q: %v", c.Addr, err)
		}
		var d net.Dialer
		connStart := time.Now()
		raw, err := d.DialContext(ctx, "tcp", c.Addr)
		if err != nil {
			return nil, timing, fmt.Errorf("dot: dial: %w", err)
		}
		timing.Connect = time.Since(connStart)
		cfg := c.TLSConfig
		if cfg == nil {
			cfg = &tls.Config{ServerName: host, MinVersion: tls.VersionTLS12}
		}
		tlsStart := time.Now()
		conn := tls.Client(raw, cfg)
		conn.SetDeadline(deadline)
		if err := conn.HandshakeContext(ctx); err != nil {
			raw.Close()
			return nil, timing, fmt.Errorf("dot: TLS handshake: %w", err)
		}
		timing.TLSHandshake = time.Since(tlsStart)
		c.conn = conn
	} else {
		timing.Reused = true
	}

	c.conn.SetDeadline(deadline)
	resp, sent, err := c.roundTrip(q, &timing, start)
	if err != nil && sent {
		// From the first byte written the stream is only good if the
		// whole exchange is: a failed write, a read cut short by the
		// deadline, or a frame that is not this query's answer all
		// leave it out of step.
		c.closeLocked()
	}
	return resp, timing, err
}

// roundTrip sends q on the pooled connection and reads its answer.
// sent reports whether anything was written, that is, whether a failure
// has spoiled the stream.
func (c *Client) roundTrip(q *dnswire.Message, timing *Timing, start time.Time) (resp *dnswire.Message, sent bool, err error) {
	scratch := dnswire.GetBuffer()
	defer dnswire.PutBuffer(scratch)
	// Pack behind the 2-byte length prefix so the frame goes out in a
	// single TLS record write.
	frame, err := q.AppendPack(append(scratch.B[:0], 0, 0))
	if err != nil {
		return nil, false, err
	}
	wlen := len(frame) - 2
	if wlen > 0xffff {
		return nil, false, fmt.Errorf("dot: message too large for framing: %d", wlen)
	}
	frame[0], frame[1] = byte(wlen>>8), byte(wlen)
	scratch.B = frame
	rtStart := time.Now()
	if _, err := c.conn.Write(frame); err != nil {
		return nil, true, fmt.Errorf("dot: write: %w", err)
	}
	raw, err := dnsclient.ReadTCPMessageBuf(c.conn, frame[:0])
	if err != nil {
		return nil, true, fmt.Errorf("dot: read: %w", err)
	}
	scratch.B = raw
	timing.RoundTrip = time.Since(rtStart)
	timing.Total = time.Since(start)
	resp = dnswire.GetMessage()
	if err := dnswire.UnpackReplyInto(raw, resp, q); err != nil {
		dnswire.PutMessage(resp)
		return nil, true, fmt.Errorf("dot: decode: %w", err)
	}
	if resp.Header.ID != q.Header.ID {
		dnswire.PutMessage(resp)
		return nil, true, errors.New("dot: response ID mismatch")
	}
	return resp, true, nil
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 10 * time.Second
}

// Close drops the pooled connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
	return nil
}

func (c *Client) closeLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
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

	// Listeners is the number of parallel accept loops (see
	// serve.Options); zero means one. Set before ListenAndServe.
	Listeners int

	// Protect configures the engine's overload protection (admission
	// budget, connection caps, write deadlines — see serve.Protection).
	// The zero value leaves every defense off.
	Protect serve.Protection

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
		TLSConfig:         s.TLSConfig,
		Listeners:         s.Listeners,
		QueryTimeout:      10 * time.Second,
		StreamIdleTimeout: 30 * time.Second,
		Protection:        s.Protect,
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

// Shutdown gracefully stops the server: accepting stops at once, the
// frame each connection is serving completes unless ctx expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.engine == nil {
		return nil
	}
	return s.engine.Shutdown(ctx)
}
