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
	"sync"
	"time"

	"repro/internal/deadline"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
)

// endpoint is a parsed request URL: where to connect and what to put
// in the request line and Host header.
type endpoint struct {
	https      bool
	addr       string // host:port to dial
	host       string // Host header
	serverName string // TLS SNI and the name the certificate must carry
	path       string // escaped request path, never empty
	// query is the request's raw query up to and including "dns="
	// (after the URL's own parameters when it has any): the ?dns= value
	// is appended to it directly, with no url.Values round trip.
	query string
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
	query := "dns="
	if u.RawQuery != "" {
		query = u.RawQuery + "&dns="
	}
	return &endpoint{
		https:      u.Scheme == "https",
		addr:       net.JoinHostPort(u.Hostname(), port),
		host:       u.Host,
		serverName: u.Hostname(),
		path:       path,
		query:      query,
	}, nil
}

// engine is the client's transport: HTTP/1.1 over an idle pool of
// persistent connections, one exchange at a time per connection,
// written and read on the caller's goroutine as dot.Client does (each
// connection's one goroutine only watches for cancellation), and under
// the same dial, pool, deadline and redial rules
// (internal/dnsclient/conn.go). It speaks exactly what a DoH exchange
// needs — one request in one Write, one response parsed in place — and
// nothing of HTTP beyond that: no redirects, no cookies, no proxies, no
// HTTP/2.
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
	// watch hands the watcher one exchange's Done channel and settle ends
	// that watch: two synchronous handoffs, no allocation. The watcher
	// sets aborted before it takes the settle; the engine reads it after.
	watch   chan (<-chan struct{})
	settle  chan struct{}
	aborted bool
}

// readers holds the connections' read buffers between connections.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readBufferSize) }}

func newConnState(c net.Conn) *connState {
	st := &connState{
		br:     readers.Get().(*bufio.Reader),
		watch:  make(chan (<-chan struct{})),
		settle: make(chan struct{}),
	}
	st.br.Reset(c)
	go st.watcher(c)
	return st
}

// watcher is c's cancellation: when the context of the exchange it
// watches ends first, it fails c's pending and future I/O by poisoning
// its deadline. It returns when the state is closed.
func (st *connState) watcher(c net.Conn) {
	for done := range st.watch {
		select {
		case <-done:
			c.SetDeadline(time.Unix(1, 0))
			st.aborted = true
			<-st.settle
		case <-st.settle:
		}
	}
}

// Close ends the watcher and returns the read buffer; the pool calls it
// when it closes the connection.
func (st *connState) Close() error {
	close(st.watch)
	st.br.Reset(nil)
	readers.Put(st.br)
	return nil
}

// roundTrip sends a GET for the packed query dns and reads the whole
// response, the body into body's storage and cut at maxBody+1 bytes.
// The response's timing is filled on failure too.
func (e *engine) roundTrip(ctx context.Context, dns []byte, body *dnswire.Buffer) (response, error) {
	buf := dnswire.GetBuffer()
	defer dnswire.PutBuffer(buf)
	buf.B = appendRequest(buf.B[:0], e.dest, dns)

	// A deadline.Lazy's own deadline is the socket's already: watching
	// its parent leaves it unarmed.
	done := deadline.Done(ctx)
	var resp response
	a := e.pool.Begin(ctx, e.dest.addr, e.tlsConfig, e.timeout)
	for a.Next() {
		st, _ := a.State.(*connState)
		if st == nil {
			st = newConnState(a.Conn)
			a.State = st
		}
		st.watch <- done // nil, for a context that is never cancelled, never fires
		var reusable bool
		var err error
		resp, reusable, err = do(a.Conn, st.br, buf.B, body)
		st.settle <- struct{}{}
		// An aborted exchange left the connection's deadline poisoned.
		a.Done(reusable && !st.aborted, err)
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

// appendRequest appends the whole GET request for the packed query dns
// to b, its ?dns= value base64url-encoded straight into place, so it
// leaves in one Write (one TLS record).
func appendRequest(b []byte, dest *endpoint, dns []byte) []byte {
	b = append(b, "GET "...)
	b = append(b, dest.path...)
	b = append(b, '?')
	b = append(b, dest.query...)
	b = base64.RawURLEncoding.AppendEncode(b, dns)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, dest.host...)
	b = append(b, "\r\nAccept: "+wireContentType+"\r\n\r\n"...)
	return b
}
