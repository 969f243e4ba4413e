// Package dohclient implements an RFC 8484 DNS-over-HTTPS client with
// connection reuse and per-phase timing instrumentation. The timing
// breakdown (DNS lookup of the DoH server name, TCP connect, TLS
// handshake, request round trip) mirrors the decomposition the paper
// measures in Figure 2 and feeds the t_DoH / t_DoHR estimators.
//
// By default exchanges run on the package's own HTTP/1.1 engine
// (engine.go): persistent connections, one Write and one in-place
// parse per query, no net/http on the wire path. A client built with
// Options.HTTPClient goes through net/http instead (nethttp.go) —
// that is the route to HTTP/2, proxies and custom transports. Both
// sit behind the one roundTripper seam and are held to the same
// results by a differential test.
package dohclient

import (
	"context"
	"crypto/tls"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
)

// Timing is the per-phase breakdown of a single DoH exchange; zero
// DNSLookup, Connect and TLSHandshake on a reused connection.
type Timing = dnsclient.Timing

// Client is a DoH client bound to one server URL. The zero value is
// not usable; construct with New. It is safe for concurrent use.
type Client struct {
	rt      roundTripper
	usePOST bool
	// query is the request's raw query: for GET everything up to and
	// including "dns=" (preceded by the endpoint's own parameters when
	// it has any), so the transports build the ?dns= value by direct
	// append instead of url.Values round trips; for POST the endpoint's
	// own parameters.
	query string

	mu    sync.Mutex
	stats Stats
}

// Stats aggregates client-side counters.
type Stats struct {
	Exchanges  int64
	Reused     int64
	HTTPErrors int64
	WireErrors int64
}

// Options configures a Client. The zero value (and a nil *Options)
// gives the defaults: GET requests, certificate verification on, HTTP/1.1
// over pooled persistent connections with a 30s bound per exchange.
type Options struct {
	// HTTPClient carries the exchanges over the given *http.Client
	// instead of the built-in HTTP/1.1 engine: the route to HTTP/2
	// (a transport with ForceAttemptHTTP2), proxies, custom transports
	// and test servers' clients. It overrides InsecureTLS, Timeout and
	// MaxIdleConnsPerHost.
	HTTPClient *http.Client
	// POST switches the client to RFC 8484 POST requests.
	POST bool
	// InsecureTLS accepts any server certificate; for loopback tests
	// with self-signed certificates only.
	InsecureTLS bool
	// Timeout bounds each exchange, connection set-up included
	// (default 30s).
	Timeout time.Duration
	// MaxIdleConnsPerHost caps the idle connections the pool keeps per
	// host (default 4). Under hedging or smart transport racing, size
	// it to at least the fan-out (max(4, Policy.HedgeMax), or the
	// number of destinations the smart racer first-queries
	// concurrently): an HTTP/1.1 pool discards idle connections above
	// the cap after each exchange, so a smaller cap silently re-pays
	// the handshake and inflates t_DoHR. Ignored when HTTPClient is
	// set.
	MaxIdleConnsPerHost int
}

const (
	wireContentType = "application/dns-message"
	statusOK        = 200
	// maxBody is the largest response body accepted.
	maxBody = 1 << 20
)

// request is one HTTP exchange as both transports see it; the endpoint
// it goes to is the transport's own.
type request struct {
	// query is the raw query string; on a GET it ends in "dns=" and the
	// base64url of dns follows it.
	query string
	// dns is the packed DNS query: base64url-appended to query on GET,
	// the body on POST.
	dns  []byte
	post bool
}

// response is what Exchange needs of a reply.
type response struct {
	status      int
	reason      string // status line text, set when status is not 200
	contentType string
	body        []byte
	// timing carries DNSLookup, Connect, TLSHandshake and Reused, as
	// far as the transport got; the caller adds RoundTrip and Total.
	timing Timing
}

// roundTripper is the seam between the client and the wire: the
// engine by default, net/http behind Options.HTTPClient. Either is
// bound to the client's one endpoint.
type roundTripper interface {
	// roundTrip sends req and reads the whole response, the body into
	// body's storage and cut at maxBody+1 bytes. The response's timing
	// is filled on failure too.
	roundTrip(ctx context.Context, req request, body *dnswire.Buffer) (response, error)
	// closeIdle drops the idle connections.
	closeIdle()
}

// New creates a client for a DoH endpoint URL such as
// "https://127.0.0.1:8443/dns-query". opts may be nil for defaults.
func New(serverURL string, opts *Options) (*Client, error) {
	dest, err := newEndpoint(serverURL)
	if err != nil {
		return nil, fmt.Errorf("dohclient: server URL: %w", err)
	}
	if opts == nil {
		opts = &Options{}
	}
	c := &Client{usePOST: opts.POST, query: dest.url.RawQuery}
	if !c.usePOST {
		c.query = "dns="
		if dest.url.RawQuery != "" {
			c.query = dest.url.RawQuery + "&dns="
		}
	}
	if opts.HTTPClient != nil {
		c.rt = httpTransport{hc: opts.HTTPClient, dest: dest}
		return c, nil
	}
	e := &engine{
		dest:    dest,
		timeout: opts.Timeout,
		pool:    dnsclient.Pool{MaxIdle: opts.MaxIdleConnsPerHost},
	}
	if dest.https {
		e.tlsConfig = &tls.Config{
			ServerName:         dest.serverName,
			InsecureSkipVerify: opts.InsecureTLS,
			MinVersion:         tls.VersionTLS12,
			// The engine speaks HTTP/1.1 only; offering h2 would let a
			// server pick a protocol it cannot follow.
			NextProtos: []string{"http/1.1"},
		}
	}
	if e.timeout <= 0 {
		e.timeout = 30 * time.Second
	}
	c.rt = e
	return c, nil
}

// Stats returns a snapshot of the counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Query resolves (name, typ) over DoH and returns the response plus
// the timing breakdown.
func (c *Client) Query(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, Timing, error) {
	// RFC 8484 recommends ID 0 for cache friendliness on GET; we use
	// a random ID and verify the echo, preferring Do53-style
	// anti-spoofing symmetry since our GETs are unique anyway.
	q := dnswire.NewQuery(dnsclient.RandomID(), name, typ)
	return c.Exchange(ctx, q)
}

// Exchange sends the query q over DoH.
func (c *Client) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	scratch := dnswire.GetBuffer()
	defer dnswire.PutBuffer(scratch)
	wire, err := q.AppendPack(scratch.B[:0])
	if err != nil {
		return nil, Timing{}, err
	}
	scratch.B = wire
	body := dnswire.GetBuffer()
	defer dnswire.PutBuffer(body)

	start := time.Now()
	resp, err := c.rt.roundTrip(ctx, request{query: c.query, dns: wire, post: c.usePOST}, body)
	timing := resp.timing
	timing.Total = time.Since(start)
	timing.RoundTrip = timing.Total - timing.DNSLookup - timing.Connect - timing.TLSHandshake
	if err != nil {
		c.count(func(s *Stats) { s.HTTPErrors++ })
		return nil, timing, fmt.Errorf("dohclient: %w", err)
	}
	if resp.status != statusOK {
		c.count(func(s *Stats) { s.HTTPErrors++ })
		return nil, timing, fmt.Errorf("dohclient: server returned %s", resp.reason)
	}
	if resp.contentType != wireContentType {
		c.count(func(s *Stats) { s.WireErrors++ })
		return nil, timing, fmt.Errorf("dohclient: unexpected content-type %q", resp.contentType)
	}
	if len(resp.body) > maxBody {
		c.count(func(s *Stats) { s.WireErrors++ })
		return nil, timing, fmt.Errorf("dohclient: response body exceeds %d bytes", maxBody)
	}
	m := dnswire.GetMessage()
	if err := dnswire.UnpackReplyInto(resp.body, m, q); err != nil {
		dnswire.PutMessage(m)
		c.count(func(s *Stats) { s.WireErrors++ })
		return nil, timing, fmt.Errorf("dohclient: decoding response: %w", err)
	}
	if m.Header.ID != q.Header.ID {
		dnswire.PutMessage(m)
		c.count(func(s *Stats) { s.WireErrors++ })
		return nil, timing, fmt.Errorf("dohclient: response ID mismatch")
	}
	c.mu.Lock()
	c.stats.Exchanges++
	if timing.Reused {
		c.stats.Reused++
	}
	c.mu.Unlock()
	return m, timing, nil
}

func (c *Client) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// CloseIdleConnections drops pooled connections so the next exchange
// pays the full handshake cost again (used to measure DoH1 vs DoHR).
func (c *Client) CloseIdleConnections() {
	c.rt.closeIdle()
}
