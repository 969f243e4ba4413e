package dohclient

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"time"

	"repro/internal/dnsclient"
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
// written and read on the caller's goroutine as dot.Client does, and
// under the same dial, pool, deadline and redial rules
// (internal/dnsclient/conn.go). It speaks exactly what a DoH exchange
// needs — one request in one Write, one response parsed in place — and
// nothing of HTTP beyond that: no redirects, no cookies, no proxies, no
// HTTP/2 (Options.HTTPClient is the route to those).
type engine struct {
	dest      *endpoint
	tlsConfig *tls.Config // nil for http:// endpoints
	timeout   time.Duration
	pool      dnsclient.Pool
}

// connState is what the engine keeps with a persistent connection
// (dnsclient.Attempt.State).
type connState struct {
	br *bufio.Reader
	// abort fails the connection's pending and future I/O; it is what
	// a cancelled context runs. Built once per connection so arming it
	// per exchange allocates no closure.
	abort func()
}

func newConnState(c net.Conn) *connState {
	return &connState{
		br:    bufio.NewReaderSize(c, readBufferSize),
		abort: func() { c.SetDeadline(time.Unix(1, 0)) },
	}
}

func (e *engine) roundTrip(ctx context.Context, req request, body *dnswire.Buffer) (response, error) {
	buf := dnswire.GetBuffer()
	defer dnswire.PutBuffer(buf)
	buf.B = appendRequest(buf.B[:0], e.dest, req)

	var resp response
	a := e.pool.Begin(ctx, e.dest.addr, e.tlsConfig, e.timeout)
	for a.Next() {
		st, _ := a.State.(*connState)
		if st == nil {
			st = newConnState(a.Conn)
			a.State = st
		}
		var stop func() bool
		if ctx.Done() != nil {
			stop = context.AfterFunc(ctx, st.abort)
		}
		var reusable bool
		var err error
		resp, reusable, err = do(a.Conn, st.br, buf.B, body)
		if stop != nil && !stop() {
			// The context ended mid-exchange and abort ran (or is running):
			// the connection's deadline is poisoned.
			reusable = false
		}
		a.Done(reusable, err)
	}
	resp.timing = a.Timing
	return resp, a.Err()
}

// do runs one request/response; reusable reports whether the server
// keeps the connection open and the stream is in step.
func do(w io.Writer, br *bufio.Reader, reqBytes []byte, body *dnswire.Buffer) (response, bool, error) {
	if _, err := w.Write(reqBytes); err != nil {
		return response{}, false, dnsclient.NoResponseError{Err: fmt.Errorf("writing request: %w", err)}
	}
	if _, err := br.Peek(1); err != nil {
		return response{}, false, dnsclient.NoResponseError{Err: fmt.Errorf("reading response: %w", noEOF(err))}
	}
	resp, reusable, err := readResponse(br, body.B[:0], maxBody+1)
	if resp.body != nil {
		body.B = resp.body
	}
	return resp, reusable, err
}

// appendRequest appends the whole request to dest — head and, for
// POST, body — so it leaves in one Write (one TLS record). A GET gets
// its ?dns= value base64url-encoded straight into place.
func appendRequest(b []byte, dest *endpoint, req request) []byte {
	if req.post {
		b = append(b, "POST "...)
	} else {
		b = append(b, "GET "...)
	}
	b = append(b, dest.path...)
	if req.query != "" {
		b = append(b, '?')
		b = append(b, req.query...)
		if !req.post {
			b = base64.RawURLEncoding.AppendEncode(b, req.dns)
		}
	}
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, dest.host...)
	b = append(b, "\r\nAccept: "+wireContentType...)
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

func (e *engine) closeIdle() { e.pool.CloseIdle() }
