package dnsclient

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dnswire"
)

// This file is the one connection path under the four wire clients:
// dohclient's HTTP/1.1 engine, dot.Client, and the Do53 client's UDP
// exchange and TCP fallback dial, pool, bound and redial here and nowhere
// else. The rules, once:
//
//   - One deadline, min(now+timeout, ctx.Deadline()), read in Begin and
//     armed on the socket; a failure under the context's own deadline, or
//     after the context ended, is reported as the context's error.
//   - An idle connection is reused most recently used first. If it fails
//     before any byte of a response arrived, not by a timeout and with
//     the context alive, the server had closed it (for a datagram socket:
//     an ICMP refusal): a DNS query is idempotent, so it is asked once
//     more on a fresh connection.
//   - A connection whose exchange failed is never kept: the stream or
//     socket may still deliver the late reply, and the next query would
//     read that.
//
// Nothing here asks the context for Done: a bare cancel() interrupts an
// exchange only where the client watches for it (dohclient does, through
// deadline.Done), and a deadline.Lazy above stays unarmed.

// Pool keeps the idle connections of one client. The zero value is
// ready to use.
type Pool struct {
	// MaxIdle is the number of idle connections kept per origin; zero
	// means 4.
	MaxIdle int

	mu   sync.Mutex
	idle []idleConn // most recently used last
}

// idleConn is one persistent connection while the pool owns it; an
// Attempt owns it otherwise.
type idleConn struct {
	conn   net.Conn
	state  any  // Attempt.State
	secure bool // TLS
	addr   string
}

// take removes the most recently used idle connection to the origin
// and reports whether there was one.
func (p *Pool) take(secure bool, addr string) (idleConn, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if c := p.idle[i]; c.secure == secure && c.addr == addr {
			last := len(p.idle) - 1
			copy(p.idle[i:], p.idle[i+1:])
			p.idle[last] = idleConn{}
			p.idle = p.idle[:last]
			return c, true
		}
	}
	return idleConn{}, false
}

// put pools c, or closes it when its origin already has MaxIdle idle
// connections.
func (p *Pool) put(c idleConn) {
	max := p.MaxIdle
	if max <= 0 {
		max = 4
	}
	p.mu.Lock()
	n := 0
	for _, o := range p.idle {
		if o.secure == c.secure && o.addr == c.addr {
			n++
		}
	}
	keep := n < max
	if keep {
		p.idle = append(p.idle, c)
	}
	p.mu.Unlock()
	if !keep {
		c.close()
	}
}

// close closes the connection, and its State when that is an io.Closer:
// the pool ends a connection's state wherever it ends the connection.
func (c idleConn) close() {
	c.conn.Close()
	if st, ok := c.state.(io.Closer); ok {
		st.Close()
	}
}

// Idle returns the number of idle connections: what the clients' pool
// tests assert on.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// CloseIdle closes the idle connections, so the next exchange pays the
// full set-up again.
func (p *Pool) CloseIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
}

// Attempt is one exchange under the rules at the top of this file: a
// value on its caller's stack (a heap variable in this loop is an
// allocation per warm exchange), driven as
//
//	a := pool.Begin(ctx, addr, tlsConfig, timeout)
//	for a.Next() {
//		resp, err = exchange(a.Conn)
//		a.Done(reusable, err)
//	}
//	return resp, a.Timing, a.Err()
//
// The body runs once, or twice when a dead idle connection is replaced.
type Attempt struct {
	// Conn is the connection to use inside the loop, its deadline set.
	Conn net.Conn
	// State is the owning client's per-connection state: nil on a fresh
	// connection, and what the loop body leaves here is found again when
	// the connection is reused (dohclient keeps its reader and watcher
	// there). The pool only closes it with the connection, if an io.Closer.
	State any
	// Timing is filled as the attempt goes, on failure too.
	Timing Timing

	pool      *Pool
	ctx       context.Context
	addr      string
	tlsConfig *tls.Config
	start     time.Time
	deadline  time.Time
	ctxBound  bool // the context's deadline is the one armed
	datagram  bool // Conn is a connected UDP socket: a Do53 client's pool
	step      attemptStep
	err       error
}

type attemptStep uint8

const (
	stepBegin  attemptStep = iota // nothing tried yet
	stepReused                    // Conn came from the pool
	stepRedial                    // the pooled connection was dead: dial next
	stepLast                      // Conn was dialled, or the attempt is over
)

// Begin starts an exchange with addr, over TLS when tlsConfig is not
// nil, bounded by timeout and by ctx's deadline, whichever is earlier.
func (p *Pool) Begin(ctx context.Context, addr string, tlsConfig *tls.Config, timeout time.Duration) Attempt {
	a := Attempt{pool: p, ctx: ctx, addr: addr, tlsConfig: tlsConfig, start: time.Now()}
	a.deadline = a.start.Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(a.deadline) {
		a.deadline, a.ctxBound = d, true
	}
	return a
}

// Next readies Conn for the loop body: an idle connection first, a
// fresh one when there is none or the idle one turned out dead. A query
// whose context is already done takes no connection: it fails with the
// context's error, and the idle connection stays in the pool.
func (a *Attempt) Next() bool {
	switch a.step {
	case stepBegin:
		if a.err = a.ctx.Err(); a.err != nil {
			a.step = stepLast
			a.stamp()
			return false
		}
		if c, ok := a.pool.take(a.tlsConfig != nil, a.addr); ok {
			a.Conn, a.State = c.conn, c.state
			a.step, a.Timing.Reused = stepReused, true
			break
		}
		fallthrough
	case stepRedial:
		a.State = nil
		a.step, a.Timing.Reused = stepLast, false
		if a.datagram {
			// No phase to time: Do53 over UDP is all RoundTrip.
			d := net.Dialer{Deadline: a.deadline}
			a.Conn, a.err = d.DialContext(a.ctx, "udp", a.addr)
		} else {
			a.Conn, a.err = dial(a.ctx, a.addr, a.tlsConfig, a.deadline, &a.Timing)
		}
		if a.err != nil {
			a.stamp()
			return false
		}
	default:
		return false
	}
	a.Conn.SetDeadline(a.deadline)
	return true
}

// Done ends the loop body: err is the exchange's outcome, reusable
// whether the stream is in step for another one. A connection goes back
// to the pool only when both say so.
func (a *Attempt) Done(reusable bool, err error) {
	c := idleConn{a.Conn, a.State, a.tlsConfig != nil, a.addr}
	if err == nil && reusable {
		a.pool.put(c)
	} else {
		c.close()
	}
	if err != nil && a.step == stepReused && unanswered(err) && !IsTimeout(err) && a.ctx.Err() == nil {
		a.step = stepRedial
		return
	}
	a.step, a.err = stepLast, err
	a.stamp()
}

// stamp closes the Timing: RoundTrip is what set-up did not take.
func (a *Attempt) stamp() {
	a.Timing.Total = time.Since(a.start)
	a.Timing.RoundTrip = a.Timing.Total - a.Timing.DNSLookup - a.Timing.Connect - a.Timing.TLSHandshake
}

// Err returns the attempt's failure in the context's terms when the
// context caused it: its own error once it is done, and DeadlineExceeded
// when its deadline was the one armed on the connection (the I/O timeout
// can fire a moment before the context's timer does).
func (a *Attempt) Err() error {
	switch {
	case a.err == nil:
		return nil
	case a.ctx.Err() != nil:
		return a.ctx.Err()
	case a.ctxBound && IsTimeout(a.err):
		return context.DeadlineExceeded
	}
	return a.err
}

// NoResponseError marks an exchange that failed before the first byte
// of a response arrived — on a reused connection, the sign that the
// server had already closed it, and the one failure that is retried.
type NoResponseError struct{ Err error }

func (e NoResponseError) Error() string { return e.Err.Error() }
func (e NoResponseError) Unwrap() error { return e.Err }

// unanswered reports whether err is a NoResponseError; apart from Done's
// success path, where its target would be a heap variable per exchange.
func unanswered(err error) bool {
	var none NoResponseError
	return errors.As(err, &none)
}

// IsTimeout reports whether err is a network timeout.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// dial opens a connection to addr, TLS included, filling the timing's
// DNSLookup, Connect and TLSHandshake from timestamps around each phase.
func dial(ctx context.Context, addr string, tlsConfig *tls.Config, deadline time.Time, t *Timing) (net.Conn, error) {
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	nc, err := dialTCP(ctx, addr, deadline, t)
	if err != nil {
		return nil, err
	}
	if tlsConfig != nil {
		if tlsConfig.ServerName == "" && !tlsConfig.InsecureSkipVerify {
			// What crypto/tls asks of a verifying client: the name the
			// certificate must carry is the host that was dialled.
			tlsConfig = tlsConfig.Clone()
			tlsConfig.ServerName, _, _ = net.SplitHostPort(addr)
		}
		tc := tls.Client(nc, tlsConfig)
		start := time.Now()
		if err := tc.HandshakeContext(ctx); err != nil {
			nc.Close()
			return nil, fmt.Errorf("TLS handshake: %w", err)
		}
		t.TLSHandshake = time.Since(start)
		nc = tc
	}
	return nc, nil
}

// dialTCP connects to addr. A host name is resolved here rather than
// inside net.Dialer so the lookup (the paper's t3+t4) is timed apart
// from the TCP handshake (t5+t6); its addresses are then tried in
// order, each but the last given an equal share of the time left, as
// net.Dialer's serial dial does.
func dialTCP(ctx context.Context, addr string, deadline time.Time, t *Timing) (net.Conn, error) {
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
			d.Timeout = time.Until(deadline) / time.Duration(left)
		}
		var nc net.Conn
		if nc, err = d.DialContext(ctx, "tcp", a); err == nil {
			t.Connect = time.Since(start)
			return nc, nil
		}
	}
	return nil, err
}

// ExchangeFramed sends q on conn behind the two-byte length prefix of
// RFC 1035 §4.2.2 and reads its answer: the exchange of DoT and of
// Do53's TCP fallback. The frame leaves in one write (one segment, one
// TLS record). Any error leaves the stream out of step.
func ExchangeFramed(conn io.ReadWriter, q *dnswire.Message) (*dnswire.Message, error) {
	scratch := dnswire.GetBuffer()
	defer dnswire.PutBuffer(scratch)
	// Pack behind a placeholder for the prefix; AppendPack keeps
	// compression offsets message-relative.
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
	if _, err := conn.Write(frame); err != nil {
		return nil, NoResponseError{fmt.Errorf("write: %w", err)}
	}
	raw, started, err := readFrame(conn, frame[:0]) // frame already sent; reuse its storage
	if err != nil {
		if err = fmt.Errorf("read: %w", err); !started {
			err = NoResponseError{err}
		}
		return nil, err
	}
	scratch.B = raw
	resp := dnswire.GetMessage()
	if err := dnswire.UnpackReplyInto(raw, resp, q); err != nil {
		dnswire.PutMessage(resp)
		return nil, fmt.Errorf("decode: %w", err)
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
	msg, _, err := readFrame(r, nil)
	return msg, err
}

// readFrame reads one length-prefixed message into buf's storage when
// its capacity suffices, allocating only for larger messages; the
// returned slice aliases buf. started reports whether any byte arrived.
func readFrame(r io.Reader, buf []byte) (msg []byte, started bool, err error) {
	// The length prefix lands in buf's storage too (the message then
	// overwrites it), so a caller with a buffer allocates nothing.
	if cap(buf) < 2 {
		buf = make([]byte, 2)
	}
	hdr := buf[:2]
	if n, err := io.ReadFull(r, hdr); err != nil {
		return nil, n > 0, err
	}
	n := int(hdr[0])<<8 | int(hdr[1])
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, true, err
	}
	return buf, true, nil
}
