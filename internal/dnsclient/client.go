// Package dnsclient implements a conventional DNS ("Do53") stub client
// over UDP with automatic TCP fallback when a response arrives
// truncated (TC bit), as resolvers have done since RFC 1035.
package dnsclient

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	// Dialer optionally overrides connection establishment; useful
	// for tests and proxied transports.
	Dialer interface {
		DialContext(ctx context.Context, network, address string) (net.Conn, error)
	}
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 5 * time.Second
}

func (c *Client) dialer() interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
} {
	if c.Dialer != nil {
		return c.Dialer
	}
	return &net.Dialer{}
}

// udpIdle pools connected UDP sockets per server address so a steady
// query stream reuses a handful of sockets instead of paying a dial
// (socket creation, connect, conn allocations) per exchange. Only the
// default dialer participates: a custom Dialer's conns may carry
// per-call state (proxied transports, tests). Stale datagrams left in
// a reused socket's buffer are discarded by oneUDP's ID and question
// checks, the same screen RFC 5452 prescribes for port reuse.
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

// Timing is the per-phase breakdown of one exchange by a wire client:
// the four terms of the paper's Equation 1 and their total, in the one
// type all three clients return (dohclient.Timing and dot.Timing are
// aliases). A phase a transport does not have stays zero. Do53 is
// connectionless: there is no name lookup, connect, or TLS phase to
// account separately, so RoundTrip equals Total (TCP-fallback dial time
// is folded into RoundTrip).
type Timing struct {
	// DNSLookup is the time to resolve the server's own name (t3+t4 in
	// the paper's Figure 2); DoH only, the others take a literal.
	DNSLookup time.Duration
	// Connect is the TCP handshake time (t5+t6).
	Connect time.Duration
	// TLSHandshake is the TLS session establishment time (t11+t12, one
	// round trip under TLS 1.3).
	TLSHandshake time.Duration
	// RoundTrip is the query/response time once the connection is
	// ready (for DoH, t17..t20 plus the HTTP exchange itself).
	RoundTrip time.Duration
	// Total is the wall-clock time of the whole exchange.
	Total time.Duration
	// Reused reports whether an existing connection served the
	// exchange, which then paid no setup; never for Do53.
	Reused bool
}

// Breakdown returns the per-phase durations under stable keys.
func (t Timing) Breakdown() map[string]time.Duration {
	return map[string]time.Duration{
		"dns_lookup":    t.DNSLookup,
		"connect":       t.Connect,
		"tls_handshake": t.TLSHandshake,
		"round_trip":    t.RoundTrip,
		"total":         t.Total,
	}
}

// ExchangeTimed is Exchange returning the unified Timing breakdown
// instead of a bare duration (the form the resolver adapters consume).
func (c *Client) ExchangeTimed(ctx context.Context, addr string, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	resp, rtt, err := c.Exchange(ctx, addr, q)
	return resp, Timing{RoundTrip: rtt, Total: rtt}, err
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
	var conn net.Conn
	if c.Dialer == nil {
		conn = getIdleUDP(addr)
	}
	if conn == nil {
		var err error
		conn, err = c.dialer().DialContext(ctx, "udp", addr)
		if err != nil {
			return nil, err
		}
	}
	// A socket that completed its exchange goes back to the idle pool;
	// one that errored may be wedged, so it is closed instead.
	reusable := false
	defer func() {
		if reusable && c.Dialer == nil {
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
// two-byte length framing).
func (c *Client) ExchangeTCP(ctx context.Context, addr string, q *dnswire.Message) (*dnswire.Message, error) {
	scratch := dnswire.GetBuffer()
	defer dnswire.PutBuffer(scratch)
	// Pack behind a 2-byte length placeholder so the frame goes out in
	// one write; AppendPack keeps compression offsets message-relative.
	frame, err := q.AppendPack(append(scratch.B[:0], 0, 0))
	if err != nil {
		return nil, err
	}
	wlen := len(frame) - 2
	if wlen > 0xffff {
		return nil, fmt.Errorf("dnsclient: message too large for TCP framing: %d", wlen)
	}
	frame[0], frame[1] = byte(wlen>>8), byte(wlen)
	scratch.B = frame
	conn, err := c.dialer().DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(c.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}
	raw, err := ReadTCPMessageBuf(conn, frame[:0]) // frame already sent; reuse its storage
	if err != nil {
		return nil, err
	}
	scratch.B = raw
	resp := dnswire.GetMessage()
	if err := dnswire.UnpackReplyInto(raw, resp, q); err != nil {
		dnswire.PutMessage(resp)
		return nil, err
	}
	if resp.Header.ID != q.Header.ID {
		dnswire.PutMessage(resp)
		return nil, ErrIDMismatch
	}
	return resp, nil
}

// WriteTCPMessage writes one length-prefixed DNS message.
func WriteTCPMessage(w io.Writer, wire []byte) error {
	if len(wire) > 0xffff {
		return fmt.Errorf("dnsclient: message too large for TCP framing: %d", len(wire))
	}
	hdr := [2]byte{byte(len(wire) >> 8), byte(len(wire))}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(wire)
	return err
}

// ReadTCPMessage reads one length-prefixed DNS message.
func ReadTCPMessage(r io.Reader) ([]byte, error) {
	return ReadTCPMessageBuf(r, nil)
}

// ReadTCPMessageBuf is ReadTCPMessage reading into buf's storage when
// its capacity suffices, allocating only for larger messages. The
// returned slice aliases buf.
func ReadTCPMessageBuf(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix lands in buf's storage too (the message then
	// overwrites it), so a caller with a buffer allocates nothing.
	if cap(buf) < 2 {
		buf = make([]byte, 2)
	}
	hdr := buf[:2]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(hdr[0])<<8 | int(hdr[1])
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
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
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}
