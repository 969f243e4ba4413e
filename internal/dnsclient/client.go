// Package dnsclient implements a conventional DNS ("Do53") stub client
// over UDP with automatic TCP fallback when a response arrives
// truncated (TC bit), as resolvers have done since RFC 1035. It also
// holds what the three wire clients share: the one Timing they return,
// and (conn.go) the one connection path under the stream clients —
// dohclient's engine, dot.Client and the TCP fallback here.
package dnsclient

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/dnswire"
)

// Errors returned by Exchange.
var (
	ErrIDMismatch = errors.New("dnsclient: response ID does not match query")
	ErrNoQuestion = errors.New("dnsclient: query has no question")
)

// Client is a Do53 stub resolver client. The zero value is usable and
// applies the defaults below.
type Client struct {
	// Timeout bounds a single UDP or TCP exchange. Default 5s.
	Timeout time.Duration
	// Retries is the number of additional UDP attempts after a
	// timeout. Default 2.
	Retries int
	// UDPSize, when nonzero, attaches an EDNS0 OPT advertising this
	// receive buffer size.
	UDPSize uint16
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 5 * time.Second
}

// udpIdle pools connected UDP sockets per server address so a steady
// query stream reuses a handful of sockets instead of paying a dial
// (socket creation, connect, conn allocations) per exchange. Stale
// datagrams left in a reused socket's buffer are discarded by oneUDP's
// ID and question checks, the same screen RFC 5452 prescribes for port
// reuse.
var udpIdle = struct {
	sync.Mutex
	m map[string][]net.Conn
}{m: make(map[string][]net.Conn)}

const (
	maxIdlePerAddr = 8
	maxIdleAddrs   = 64
)

func getIdleUDP(addr string) net.Conn {
	udpIdle.Lock()
	defer udpIdle.Unlock()
	conns := udpIdle.m[addr]
	if len(conns) == 0 {
		return nil
	}
	conn := conns[len(conns)-1]
	udpIdle.m[addr] = conns[:len(conns)-1]
	return conn
}

func putIdleUDP(addr string, conn net.Conn) {
	udpIdle.Lock()
	conns := udpIdle.m[addr]
	if len(conns) >= maxIdlePerAddr ||
		(len(conns) == 0 && len(udpIdle.m) >= maxIdleAddrs) {
		udpIdle.Unlock()
		conn.Close()
		return
	}
	udpIdle.m[addr] = append(conns, conn)
	udpIdle.Unlock()
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
	if c.UDPSize > 0 && !hasOPT(q) {
		q.Additionals = append(q.Additionals, dnswire.ResourceRecord{
			Name: ".", Type: dnswire.TypeOPT,
			Data: dnswire.OPTRecord{UDPSize: c.UDPSize},
		})
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

func (c *Client) exchangeUDP(ctx context.Context, addr string, q *dnswire.Message) (*dnswire.Message, error) {
	pkt := dnswire.GetBuffer()
	defer dnswire.PutBuffer(pkt)
	wire, err := q.AppendPack(pkt.B[:0])
	if err != nil {
		return nil, err
	}
	pkt.B = wire
	attempts := c.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		resp, err := c.oneUDP(ctx, addr, wire, q)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !retryableUDP(err) {
			break
		}
	}
	return nil, lastErr
}

func (c *Client) oneUDP(ctx context.Context, addr string, wire []byte, q *dnswire.Message) (*dnswire.Message, error) {
	conn := getIdleUDP(addr)
	if conn == nil {
		var d net.Dialer
		var err error
		if conn, err = d.DialContext(ctx, "udp", addr); err != nil {
			return nil, err
		}
	}
	// A socket that completed its exchange goes back to the idle pool;
	// one that errored may be wedged, so it is closed instead.
	reusable := false
	defer func() {
		if reusable {
			putIdleUDP(addr, conn)
		} else {
			conn.Close()
		}
	}()
	deadline := time.Now().Add(c.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, err
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
			return nil, err
		}
		if err := dnswire.UnpackReplyInto(buf[:n], resp, q); err != nil {
			// Malformed datagram from some middlebox: keep waiting
			// for the real answer until the deadline.
			continue
		}
		if resp.Header.ID != q.Header.ID {
			continue // stale or spoofed; RFC 5452 says ignore
		}
		if len(resp.Questions) > 0 && len(q.Questions) > 0 &&
			(resp.Questions[0].Type != q.Questions[0].Type ||
				!resp.Questions[0].Name.Equal(q.Questions[0].Name)) {
			continue // echoed question disagrees: stale answer on a reused socket
		}
		reusable = true
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

func hasOPT(m *dnswire.Message) bool {
	for _, rr := range m.Additionals {
		if rr.Type == dnswire.TypeOPT {
			return true
		}
	}
	return false
}

// retryableUDP reports whether a UDP exchange error is worth another
// attempt: timeouts, and connection-refused (an ICMP port-unreachable
// can race a server that is still binding, or reflect a transient
// middlebox state — a retry moments later regularly succeeds).
func retryableUDP(err error) bool {
	return IsTimeout(err) || errors.Is(err, syscall.ECONNREFUSED)
}
