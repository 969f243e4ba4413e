// Package dnsclient implements a conventional DNS ("Do53") stub client
// over UDP with automatic TCP fallback when a response arrives
// truncated (TC bit), as resolvers have done since RFC 1035. It also
// holds what the wire clients share: the one Timing they return, and
// (conn.go) the one connection path under all four — dohclient's
// engine, dot.Client, and this client's UDP exchange and TCP fallback.
package dnsclient

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"net"
	"time"

	"repro/internal/dnswire"
)

// Errors returned by Exchange.
var (
	ErrIDMismatch = errors.New("dnsclient: response ID does not match query")
	ErrNoQuestion = errors.New("dnsclient: query has no question")
)

// Client is a Do53 stub resolver client. The zero value is usable and
// applies the defaults below; a Client must not be copied after first
// use. It sends each query once: retrying is resolver.WithRetry's job.
type Client struct {
	// Timeout bounds a single UDP or TCP exchange. Default 5s.
	Timeout time.Duration

	// pool holds the client's connected UDP sockets, per server, under
	// conn.go's rules.
	pool Pool
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 5 * time.Second
}

// RandomID returns a cryptographically random query ID.
func RandomID() uint16 {
	var b [2]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back
		// to a fixed value rather than panicking in a hot path.
		return 0x2353
	}
	return binary.BigEndian.Uint16(b[:])
}

// Timing is the per-phase breakdown of one resolution: the four terms of
// the paper's Equation 1 and their total, in the one type every client
// and every policy layer returns (resolver.Timing, dohclient.Timing and
// dot.Timing are aliases). A phase a transport does not have stays zero:
// Do53 over UDP has no lookup, connect or TLS phase, so RoundTrip equals
// Total (a TCP fallback is folded into RoundTrip).
type Timing struct {
	// DNSLookup is the time to resolve the server's own name (t3+t4 in
	// the paper's Figure 2); zero for an IP literal.
	DNSLookup time.Duration
	// Connect is the TCP handshake time (t5+t6).
	Connect time.Duration
	// TLSHandshake is the TLS session establishment time (t11+t12, one
	// round trip under TLS 1.3).
	TLSHandshake time.Duration
	// RoundTrip is the query/response time once the connection is
	// ready (for DoH, t17..t20 plus the HTTP exchange itself).
	RoundTrip time.Duration
	// Total is the wall-clock time of the whole resolution, including
	// retries and backoff sleeps when a policy layer is stacked above
	// the transport.
	Total time.Duration
	// Reused reports whether an existing connection served the
	// exchange, which then paid no setup; never for Do53.
	Reused bool
	// Attempts is the number of transport attempts the resolution
	// consumed; retry and hedging layers add theirs. A bare transport
	// leaves it zero, which means one: read it through AttemptCount.
	Attempts int
	// Stale reports that the answer came from an expired cache entry
	// inside the serve-stale window (RFC 8767): TTLs are capped and a
	// background refresh is under way. Implies Reused.
	Stale bool
}

// Breakdown returns the per-phase durations under stable keys, the same
// for every transport: the form the analysis layer aggregates.
func (t Timing) Breakdown() map[string]time.Duration {
	return map[string]time.Duration{
		"dns_lookup":    t.DNSLookup,
		"connect":       t.Connect,
		"tls_handshake": t.TLSHandshake,
		"round_trip":    t.RoundTrip,
		"total":         t.Total,
	}
}

// AttemptCount is Attempts under its convention: zero means one.
func (t Timing) AttemptCount() int {
	if t.Attempts <= 0 {
		return 1
	}
	return t.Attempts
}

// Query resolves (name, type) against server addr and returns the
// response message along with the measured exchange latency.
func (c *Client) Query(ctx context.Context, addr string, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, time.Duration, error) {
	q := dnswire.NewQuery(RandomID(), name, typ)
	return c.Exchange(ctx, addr, q)
}

// Exchange sends q to addr over UDP, falling back to TCP when the
// response is truncated, and returns the final response plus total
// elapsed time.
func (c *Client) Exchange(ctx context.Context, addr string, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	if len(q.Questions) == 0 {
		return nil, 0, ErrNoQuestion
	}
	start := time.Now()
	resp, err := c.exchangeUDP(ctx, addr, q)
	if err != nil {
		return nil, time.Since(start), err
	}
	if resp.Header.Truncated {
		udpResp := resp
		resp, err = c.ExchangeTCP(ctx, addr, q)
		dnswire.PutMessage(udpResp)
		if err != nil {
			return nil, time.Since(start), err
		}
	}
	return resp, time.Since(start), nil
}

// exchangeUDP asks q on one of the pool's sockets to addr.
func (c *Client) exchangeUDP(ctx context.Context, addr string, q *dnswire.Message) (*dnswire.Message, error) {
	pkt := dnswire.GetBuffer()
	defer dnswire.PutBuffer(pkt)
	wire, err := q.AppendPack(pkt.B[:0])
	if err != nil {
		return nil, err
	}
	pkt.B = wire
	var resp *dnswire.Message
	a := c.pool.Begin(ctx, addr, nil, c.timeout())
	a.datagram = true
	for a.Next() {
		resp, err = exchangeDatagram(a.Conn, wire, q)
		a.Done(true, err)
	}
	return resp, a.Err()
}

// exchangeDatagram sends the packed query on conn and reads datagrams
// until one answers q, screening as RFC 5452 prescribes for port reuse:
// a malformed datagram, a wrong ID or a question other than q's (a stale
// answer on a reused socket) is skipped, until the deadline. An I/O
// failure means no datagram answered: a NoResponseError.
func exchangeDatagram(conn net.Conn, wire []byte, q *dnswire.Message) (*dnswire.Message, error) {
	if _, err := conn.Write(wire); err != nil {
		return nil, NoResponseError{err}
	}
	rd := dnswire.GetBuffer()
	defer dnswire.PutBuffer(rd)
	rd.Grow(65535)
	buf := rd.B[:65535]
	resp := dnswire.GetMessage()
	for {
		n, err := conn.Read(buf)
		if err != nil {
			dnswire.PutMessage(resp)
			return nil, NoResponseError{err}
		}
		if dnswire.UnpackReplyInto(buf[:n], resp, q) != nil || resp.Header.ID != q.Header.ID {
			continue
		}
		if len(resp.Questions) > 0 && (resp.Questions[0].Type != q.Questions[0].Type ||
			!resp.Questions[0].Name.Equal(q.Questions[0].Name)) {
			continue
		}
		return resp, nil
	}
}

// ExchangeTCP performs a single DNS-over-TCP exchange (RFC 1035 §4.2.2
// two-byte length framing) on a connection of its own, under the stream
// clients' one discipline (conn.go) with nothing pooled.
func (c *Client) ExchangeTCP(ctx context.Context, addr string, q *dnswire.Message) (*dnswire.Message, error) {
	var unpooled Pool
	var resp *dnswire.Message
	a := unpooled.Begin(ctx, addr, nil, c.timeout())
	for a.Next() {
		var err error
		resp, err = ExchangeFramed(a.Conn, q)
		a.Done(false, err)
	}
	return resp, a.Err()
}
