package dohclient

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/dnswire"
)

// endpoint is a parsed request URL: where to connect and what to put
// in the request line and Host header.
type endpoint struct {
	url        *url.URL
	https      bool
	addr       string // host:port to dial
	host       string // Host header
	serverName string // TLS SNI and the name the certificate must carry
	path       string // escaped request path, never empty
}

func newEndpoint(rawURL string) (*endpoint, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "https" && u.Scheme != "http" {
		return nil, fmt.Errorf("unsupported scheme %q", u.Scheme)
	}
	port := u.Port()
	if port == "" {
		port = "80"
		if u.Scheme == "https" {
			port = "443"
		}
	}
	path := u.EscapedPath()
	if path == "" {
		path = "/"
	}
	return &endpoint{
		url:        u,
		https:      u.Scheme == "https",
		addr:       net.JoinHostPort(u.Hostname(), port),
		host:       u.Host,
		serverName: u.Hostname(),
		path:       path,
	}, nil
}

// engine is the default transport: HTTP/1.1 over an idle pool of
// persistent connections, one exchange at a time per connection,
// written and read on the caller's goroutine as dot.Client does. It
// speaks exactly what a DoH exchange needs — one request in one Write,
// one response parsed in place — and nothing of HTTP beyond that: no
// redirects, no cookies, no proxies, no HTTP/2 (Options.HTTPClient is
// the route to those).
type engine struct {
	tlsConfig *tls.Config
	timeout   time.Duration
	maxIdle   int // idle connections kept per origin

	mu   sync.Mutex
	idle []*conn // most recently used last
}

// conn is one persistent connection, owned by the pool while idle and
// by exactly one exchange otherwise.
type conn struct {
	net.Conn
	br    *bufio.Reader
	https bool
	addr  string
	// abort fails the connection's pending and future I/O; it is what
	// a cancelled context runs. Built once per connection so arming it
	// per exchange allocates no closure.
	abort func()
}

// noResponseError marks an exchange that failed before the first byte
// of a response arrived — on a reused connection, the sign that the
// server had already closed it, and the one failure that is retried.
type noResponseError struct{ err error }

func (e noResponseError) Error() string { return e.err.Error() }
func (e noResponseError) Unwrap() error { return e.err }

func (e *engine) roundTrip(ctx context.Context, req request, body *dnswire.Buffer) (response, error) {
	deadline := time.Now().Add(e.timeout)
	ctxBound := false
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline, ctxBound = d, true
	}
	buf := dnswire.GetBuffer()
	defer dnswire.PutBuffer(buf)
	buf.B = appendRequest(buf.B[:0], req)

	var resp response
	var t Timing
	if c := e.takeIdle(req.dest); c != nil {
		resp, err := e.exchange(ctx, c, deadline, buf.B, body)
		if !retryable(ctx, err) {
			resp.timing.Reused = true
			return resp, exchangeError(ctx, ctxBound, err)
		}
		// The server closed the idle connection (its read timeout, a
		// restart) and no part of a response arrived: a DNS query is
		// idempotent, so ask once more on a fresh connection, as
		// net/http does.
	}
	c, err := e.dial(ctx, req.dest, deadline, &t)
	if err == nil {
		resp, err = e.exchange(ctx, c, deadline, buf.B, body)
	}
	resp.timing = t
	return resp, exchangeError(ctx, ctxBound, err)
}

// retryable reports whether a failure on a reused connection is the
// kind a fresh connection may cure: nothing of a response arrived, and
// neither a deadline nor the context is what stopped it.
func retryable(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	var none noResponseError
	return errors.As(err, &none) && !isTimeout(err) && ctx.Err() == nil
}

// exchange runs one request/response on c and then pools or closes it.
func (e *engine) exchange(ctx context.Context, c *conn, deadline time.Time, reqBytes []byte, body *dnswire.Buffer) (response, error) {
	c.SetDeadline(deadline)
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.abort)
	}
	resp, reusable, err := c.do(reqBytes, body)
	if stop != nil && !stop() {
		// The context ended mid-exchange and abort ran (or is running):
		// the connection's deadline is poisoned.
		reusable = false
	}
	if err == nil && reusable {
		e.putIdle(c)
	} else {
		c.Close()
	}
	return resp, err
}

func (c *conn) do(reqBytes []byte, body *dnswire.Buffer) (response, bool, error) {
	if _, err := c.Write(reqBytes); err != nil {
		return response{}, false, noResponseError{fmt.Errorf("writing request: %w", err)}
	}
	if _, err := c.br.Peek(1); err != nil {
		return response{}, false, noResponseError{fmt.Errorf("reading response: %w", noEOF(err))}
	}
	resp, reusable, err := readResponse(c.br, body.B[:0], maxBody+1)
	if resp.body != nil {
		body.B = resp.body
	}
	return resp, reusable, err
}

// exchangeError reports a failed exchange in the context's terms when
// the context caused it: its own error once it is done, and
// DeadlineExceeded when its deadline was the one armed on the
// connection (the I/O timeout can fire a moment before the context's
// timer does).
func exchangeError(ctx context.Context, ctxBound bool, err error) error {
	switch {
	case err == nil:
		return nil
	case ctx.Err() != nil:
		return ctx.Err()
	case ctxBound && isTimeout(err):
		return context.DeadlineExceeded
	}
	return err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// appendRequest appends the whole request — head and, for POST, body —
// so it leaves in one Write (one TLS record). A wire-format GET gets
// its ?dns= value base64url-encoded straight into place.
func appendRequest(b []byte, req request) []byte {
	if req.post {
		b = append(b, "POST "...)
	} else {
		b = append(b, "GET "...)
	}
	b = append(b, req.dest.path...)
	if req.query != "" {
		b = append(b, '?')
		b = append(b, req.query...)
		if !req.post && req.dns != nil {
			b = base64.RawURLEncoding.AppendEncode(b, req.dns)
		}
	}
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, req.dest.host...)
	b = append(b, "\r\nAccept: "...)
	b = append(b, req.accept...)
	if req.post {
		b = append(b, "\r\nContent-Type: "+wireContentType+"\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(req.dns)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	if req.post {
		b = append(b, req.dns...)
	}
	return b
}

// dial opens a connection to dest, TLS included, filling the timing's
// DNSLookup, Connect and TLSHandshake from timestamps around each
// phase.
func (e *engine) dial(ctx context.Context, dest *endpoint, deadline time.Time, t *Timing) (*conn, error) {
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	nc, err := dialTCP(ctx, dest.addr, t)
	if err != nil {
		return nil, err
	}
	if dest.https {
		cfg := e.tlsConfig
		if cfg.ServerName != dest.serverName {
			cfg = cfg.Clone()
			cfg.ServerName = dest.serverName
		}
		tc := tls.Client(nc, cfg)
		start := time.Now()
		if err := tc.HandshakeContext(ctx); err != nil {
			nc.Close()
			return nil, fmt.Errorf("TLS handshake: %w", err)
		}
		t.TLSHandshake = time.Since(start)
		nc = tc
	}
	c := &conn{Conn: nc, br: bufio.NewReaderSize(nc, readBufferSize), https: dest.https, addr: dest.addr}
	c.abort = func() { c.SetDeadline(time.Unix(1, 0)) }
	return c, nil
}

// dialTCP connects to addr. A host name is resolved here rather than
// inside net.Dialer so the lookup (the paper's t3+t4) is timed apart
// from the TCP handshake (t5+t6); its addresses are then tried in
// order, each but the last given an equal share of the time left, as
// net.Dialer's serial dial does.
func dialTCP(ctx context.Context, addr string, t *Timing) (net.Conn, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	addrs := []string{addr}
	if _, err := netip.ParseAddr(host); err != nil {
		start := time.Now()
		ips, err := net.DefaultResolver.LookupHost(ctx, host)
		t.DNSLookup = time.Since(start)
		if err != nil {
			return nil, err
		}
		addrs = addrs[:0]
		for _, ip := range ips {
			addrs = append(addrs, net.JoinHostPort(ip, port))
		}
	}
	start := time.Now()
	for i, a := range addrs {
		var d net.Dialer
		if left := len(addrs) - i; left > 1 {
			if dl, ok := ctx.Deadline(); ok {
				d.Timeout = time.Until(dl) / time.Duration(left)
			}
		}
		var nc net.Conn
		if nc, err = d.DialContext(ctx, "tcp", a); err == nil {
			t.Connect = time.Since(start)
			return nc, nil
		}
	}
	return nil, err
}

// serves reports whether c is a connection to the given origin.
func (c *conn) serves(https bool, addr string) bool {
	return c.https == https && c.addr == addr
}

// takeIdle removes and returns the most recently used idle connection
// to dest, or nil.
func (e *engine) takeIdle(dest *endpoint) *conn {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := len(e.idle) - 1; i >= 0; i-- {
		if c := e.idle[i]; c.serves(dest.https, dest.addr) {
			last := len(e.idle) - 1
			copy(e.idle[i:], e.idle[i+1:])
			e.idle[last] = nil
			e.idle = e.idle[:last]
			return c
		}
	}
	return nil
}

// putIdle pools c, or closes it when its origin already has maxIdle
// idle connections.
func (e *engine) putIdle(c *conn) {
	e.mu.Lock()
	n := 0
	for _, o := range e.idle {
		if o.serves(c.https, c.addr) {
			n++
		}
	}
	if n < e.maxIdle {
		e.idle = append(e.idle, c)
		c = nil
	}
	e.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (e *engine) closeIdle() {
	e.mu.Lock()
	idle := e.idle
	e.idle = nil
	e.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
