package resolver

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dot"
	"repro/internal/tlsutil"
)

// The four wire clients share one connection discipline
// (internal/dnsclient/conn.go); this file holds each of them to it
// against raw-socket peers, from the one package that imports them all:
// the three stream clients in one table, the Do53 client's UDP exchange
// in its own (a datagram peer sees no connections, so the sockets a
// client keeps are counted where the kernel lists them).

// reaction is what a peer does with one query.
type reaction int

const (
	answer          reaction = iota // reply at once
	answerThenClose                 // reply, then close the connection
	swallow                         // read it and say nothing, ever
)

// wire is how a peer frames DNS messages on its connections.
type wire int

const (
	framedTCP wire = iota // RFC 1035 §4.2.2 length prefix, no TLS
	framedTLS             // the same under TLS: DoT
	httpTLS               // HTTP/1.1 GET ?dns= under TLS: DoH
)

// peer is a raw server that does with each query what a test tells it
// to, and records what it saw.
type peer struct {
	ln   net.Listener
	wire wire

	mu    sync.Mutex
	conns int // connections accepted
	open  int // of those, not yet closed
	asked int // queries read, all connections
}

// newPeer starts a peer. react is called with the connection's number
// and the query's number across all connections, both from 0; it may
// block to hold the query.
func newPeer(t *testing.T, w wire, react func(conn, nth int) reaction) *peer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if w != framedTCP {
		cfg, err := tlsutil.ServerConfig("127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		ln = tls.NewListener(ln, cfg)
	}
	p := &peer{ln: ln, wire: w}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			no := p.conns
			p.conns++
			p.open++
			p.mu.Unlock()
			go func() {
				p.serve(conn, no, react)
				conn.Close()
				p.mu.Lock()
				p.open--
				p.mu.Unlock()
			}()
		}
	}()
	return p
}

func (p *peer) serve(conn net.Conn, no int, react func(conn, nth int) reaction) {
	br := bufio.NewReader(conn)
	for {
		raw, err := p.readQuery(br)
		if err != nil {
			return
		}
		q, err := dnswire.Unpack(raw)
		if err != nil {
			return
		}
		p.mu.Lock()
		nth := p.asked
		p.asked++
		p.mu.Unlock()
		r := react(no, nth)
		if r == swallow {
			continue
		}
		reply, err := q.Reply().Pack()
		if err != nil {
			return
		}
		if p.wire == httpTLS {
			_, err = fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/dns-message\r\nContent-Length: %d\r\n\r\n%s", len(reply), reply)
		} else {
			err = dnsclient.WriteTCPMessage(conn, reply)
		}
		if err != nil || r == answerThenClose {
			return
		}
	}
}

// readQuery reads one framed message, or one GET request's ?dns= value.
func (p *peer) readQuery(br *bufio.Reader) ([]byte, error) {
	if p.wire != httpTLS {
		return dnsclient.ReadTCPMessage(br)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		if h == "\r\n" {
			break
		}
	}
	_, value, _ := strings.Cut(line, "dns=")
	value, _, _ = strings.Cut(value, " ")
	return base64.RawURLEncoding.DecodeString(value)
}

func (p *peer) port() string {
	_, port, _ := net.SplitHostPort(p.ln.Addr().String())
	return port
}

// seen returns the connections accepted, those still open, and the
// number of queries read.
func (p *peer) seen() (conns, open, asked int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns, p.open, p.asked
}

// streamClient is one of the three clients as the table drives it.
type streamClient struct {
	name string
	wire wire
	// pooled is false for ExchangeTCP, which dials per exchange and
	// returns no Timing.
	pooled bool
	// dial builds the client for a peer at host:port with the given
	// Timeout; closeIdle drops its pooled connections.
	dial func(t *testing.T, hostport string, timeout time.Duration) (r Resolver, closeIdle func())
}

var streamClients = []streamClient{
	{name: "doh", wire: httpTLS, pooled: true, dial: func(t *testing.T, hostport string, timeout time.Duration) (Resolver, func()) {
		c, err := dohclient.New("https://"+hostport+"/dns-query", &dohclient.Options{InsecureTLS: true, Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		return NewDoH(c), c.CloseIdleConnections
	}},
	{name: "dot", wire: framedTLS, pooled: true, dial: func(_ *testing.T, hostport string, timeout time.Duration) (Resolver, func()) {
		c := &dot.Client{Addr: hostport, TLSConfig: tlsutil.InsecureClientConfig(), Timeout: timeout}
		return NewDoT(c), func() { c.Close() }
	}},
	{name: "tcp", wire: framedTCP, dial: func(_ *testing.T, hostport string, timeout time.Duration) (Resolver, func()) {
		c := &dnsclient.Client{Timeout: timeout}
		return Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
			resp, err := c.ExchangeTCP(ctx, hostport, q)
			return resp, Timing{}, err
		}), func() {}
	}},
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestStreamClientConformance is the discipline as a table: each rule,
// for each client.
func TestStreamClientConformance(t *testing.T) {
	ctx := context.Background()
	query := func(i int) *dnswire.Message {
		return dnswire.NewQuery(uint16(100+i), dnswire.NewName(fmt.Sprintf("q%d.a.com.", i)), dnswire.TypeA)
	}
	for _, sc := range streamClients {
		t.Run(sc.name+"/dead idle connection costs one redial", func(t *testing.T) {
			srv := newPeer(t, sc.wire, func(conn, _ int) reaction {
				if conn == 0 {
					return answerThenClose
				}
				return answer
			})
			r, closeIdle := sc.dial(t, srv.ln.Addr().String(), 3*time.Second)
			defer closeIdle()
			if _, _, err := r.Resolve(ctx, query(0)); err != nil {
				t.Fatal(err)
			}
			resp, timing, err := r.Resolve(ctx, query(1))
			if err != nil {
				t.Fatalf("exchange after the server closed the idle connection: %v", err)
			}
			if resp.Header.ID != 101 || timing.Reused {
				t.Errorf("answer ID %d, Reused = %v; want 101 on a fresh connection", resp.Header.ID, timing.Reused)
			}
			if sc.pooled && (timing.Connect <= 0 || timing.TLSHandshake <= 0) {
				t.Errorf("timing = %+v, want the redial's Connect and TLSHandshake", timing)
			}
			if conns, _, asked := srv.seen(); conns != 2 || asked != 2 {
				t.Errorf("peer saw %d connections and %d queries, want 2 and 2", conns, asked)
			}
		})

		t.Run(sc.name+"/silent peer costs one Timeout and no redial", func(t *testing.T) {
			srv := newPeer(t, sc.wire, func(_, nth int) reaction {
				if nth == 0 {
					return answer
				}
				return swallow
			})
			const timeout = 300 * time.Millisecond
			r, closeIdle := sc.dial(t, srv.ln.Addr().String(), timeout)
			defer closeIdle()
			if _, _, err := r.Resolve(ctx, query(0)); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, timing, err := r.Resolve(ctx, query(1))
			elapsed := time.Since(start)
			if !dnsclient.IsTimeout(err) {
				t.Fatalf("err = %v, want a timeout", err)
			}
			if elapsed < timeout || elapsed > timeout*3/2 {
				t.Errorf("silent peer held the exchange for %v, want one Timeout (%v)", elapsed, timeout)
			}
			wantConns := 2
			if sc.pooled {
				wantConns = 1
				if !timing.Reused {
					t.Error("the exchange did not run on the pooled connection")
				}
			}
			if conns, _, asked := srv.seen(); conns != wantConns || asked != 2 {
				t.Errorf("peer saw %d connections and %d queries, want %d and 2: a timeout is not redialled", conns, asked, wantConns)
			}
			// The connection that timed out is not kept either.
			waitFor(t, "the timed-out connection to close", func() bool { _, open, _ := srv.seen(); return open == 0 })
		})

		t.Run(sc.name+"/failed fresh connection is not kept", func(t *testing.T) {
			srv := newPeer(t, sc.wire, func(_, nth int) reaction {
				if nth == 0 {
					return swallow
				}
				return answer
			})
			r, closeIdle := sc.dial(t, srv.ln.Addr().String(), 3*time.Second)
			defer closeIdle()
			short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			_, timing, err := r.Resolve(short, query(0))
			cancel()
			if err == nil || timing.Reused {
				t.Fatalf("err = %v, Reused = %v; want a failure on a fresh connection", err, timing.Reused)
			}
			waitFor(t, "the failed connection to close", func() bool { _, open, _ := srv.seen(); return open == 0 })
			resp, timing, err := r.Resolve(ctx, query(1))
			if err != nil {
				t.Fatalf("exchange after the failed one: %v", err)
			}
			if resp.Header.ID != 101 || timing.Reused {
				t.Errorf("answer ID %d, Reused = %v; want 101 on a fresh connection", resp.Header.ID, timing.Reused)
			}
			if conns, _, asked := srv.seen(); conns != 2 || asked != 2 {
				t.Errorf("peer saw %d connections and %d queries, want 2 and 2", conns, asked)
			}
		})

		t.Run(sc.name+"/context deadline beats Timeout and is the error", func(t *testing.T) {
			srv := newPeer(t, sc.wire, func(int, int) reaction { return swallow })
			r, closeIdle := sc.dial(t, srv.ln.Addr().String(), 5*time.Second)
			defer closeIdle()
			// start before the deadline is armed: an exchange that ends
			// at the deadline then measures no less than 80ms.
			start := time.Now()
			short, cancel := context.WithTimeout(ctx, 80*time.Millisecond)
			defer cancel()
			_, _, err := r.Resolve(short, query(0))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want context.DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed < 80*time.Millisecond || elapsed > time.Second {
				t.Errorf("the exchange took %v, want about 80ms", elapsed)
			}
		})

		// A query whose context is done before it starts is not sent, and
		// the pooled connection it would have taken stays in the pool.
		t.Run(sc.name+"/context cancelled before the query", func(t *testing.T) {
			srv := newPeer(t, sc.wire, func(int, int) reaction { return answer })
			r, closeIdle := sc.dial(t, srv.ln.Addr().String(), 3*time.Second)
			defer closeIdle()
			if _, _, err := r.Resolve(ctx, query(0)); err != nil {
				t.Fatal(err)
			}
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if _, _, err := r.Resolve(cancelled, query(1)); !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			resp, timing, err := r.Resolve(ctx, query(2))
			if err != nil || resp.Header.ID != 102 {
				t.Fatalf("exchange after the cancelled one: %v, want the answer to 102", err)
			}
			wantConns := 2
			if sc.pooled {
				wantConns = 1
				if !timing.Reused {
					t.Error("the next query did not run on the pooled connection")
				}
			}
			if conns, _, asked := srv.seen(); conns != wantConns || asked != 2 {
				t.Errorf("peer saw %d connections and %d queries, want %d and 2: the cancelled query is not sent", conns, asked, wantConns)
			}
		})

		// The known limit: only dohclient arms a hook on the context, so a
		// bare cancel() ends a DoT or TCP exchange when the socket deadline
		// does, not before. What every client owes is the context's error.
		t.Run(sc.name+"/cancelled context is the error", func(t *testing.T) {
			srv := newPeer(t, sc.wire, func(int, int) reaction { return swallow })
			const timeout = 300 * time.Millisecond
			r, closeIdle := sc.dial(t, srv.ln.Addr().String(), timeout)
			defer closeIdle()
			cancellable, cancel := context.WithCancel(ctx)
			time.AfterFunc(50*time.Millisecond, cancel)
			start := time.Now()
			_, _, err := r.Resolve(cancellable, query(0))
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > timeout*3/2 {
				t.Errorf("the cancelled exchange took %v, want no more than its Timeout (%v)", elapsed, timeout)
			}
		})

		t.Run(sc.name+"/host name is looked up and timed", func(t *testing.T) {
			srv := newPeer(t, sc.wire, func(int, int) reaction { return answer })
			r, closeIdle := sc.dial(t, "localhost:"+srv.port(), 3*time.Second)
			defer closeIdle()
			_, timing, err := r.Resolve(ctx, query(0))
			if err != nil {
				t.Skipf("localhost does not reach the loopback listener here: %v", err)
			}
			if sc.pooled && (timing.DNSLookup <= 0 || timing.Connect <= 0) {
				t.Errorf("timing = %+v, want DNSLookup and Connect set", timing)
			}
		})

		t.Run(sc.name+"/pool bound under concurrency", func(t *testing.T) {
			const workers, perWorker, maxIdle = 12, 10, 4
			srv := newPeer(t, sc.wire, func(int, int) reaction { return answer })
			r, closeIdle := sc.dial(t, srv.ln.Addr().String(), 5*time.Second)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						if _, _, err := r.Resolve(ctx, query(w*perWorker+i)); err != nil {
							t.Errorf("worker %d query %d: %v", w, i, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			// Connections over the cap are closed, not leaked: the peer ends
			// up with the pooled ones open and no other.
			waitFor(t, "the connections over the cap to close", func() bool {
				_, open, _ := srv.seen()
				if sc.pooled {
					return open >= 1 && open <= maxIdle
				}
				return open == 0
			})
			if _, _, asked := srv.seen(); asked != workers*perWorker {
				t.Errorf("peer read %d queries, want %d", asked, workers*perWorker)
			}
			closeIdle()
			waitFor(t, "the pooled connections to close", func() bool { _, open, _ := srv.seen(); return open == 0 })
		})
	}
}

// datagramPeer is a raw UDP server that does with each query what a
// test tells it to, and records what it saw.
type datagramPeer struct {
	conn *net.UDPConn

	mu      sync.Mutex
	asked   int            // queries read
	sources map[string]int // queries per client socket
}

// newDatagramPeer starts a peer. react is called with the query's number,
// from 0; an answerThenClose is an answer.
func newDatagramPeer(t *testing.T, react func(nth int) reaction) *datagramPeer {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &datagramPeer{conn: conn, sources: make(map[string]int)}
	go func() {
		buf := make([]byte, 512)
		for {
			n, src, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			q, err := dnswire.Unpack(buf[:n])
			if err != nil {
				continue
			}
			p.mu.Lock()
			nth := p.asked
			p.asked++
			p.sources[src.String()]++
			p.mu.Unlock()
			if react(nth) == swallow {
				continue
			}
			if reply, err := q.Reply().Pack(); err == nil {
				conn.WriteToUDP(reply, src)
			}
		}
	}()
	return p
}

func (p *datagramPeer) addr() string { return p.conn.LocalAddr().String() }

// seen returns the client sockets the queries came from and their number.
func (p *datagramPeer) seen() (sockets, asked int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sources), p.asked
}

// openSockets counts the UDP sockets connected to the peer, as Linux
// lists them in /proc/net/udp: the ones a client holds, idle or busy.
// The row is skipped where there is no such list.
func openSockets(t *testing.T, peer *datagramPeer) int {
	t.Helper()
	raw, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		t.Skipf("no socket list to count in: %v", err)
	}
	want := fmt.Sprintf("%04X", peer.conn.LocalAddr().(*net.UDPAddr).Port)
	n := 0
	for _, line := range strings.Split(string(raw), "\n")[1:] {
		// The third field is the remote address, hex IP:port; an
		// unconnected socket's is all zeros.
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		ip, port, _ := strings.Cut(f[2], ":")
		if port == want && strings.Trim(ip, "0") != "" {
			n++
		}
	}
	return n
}

// TestDatagramClientConformance holds the Do53 client's UDP exchange to
// the rules the stream clients keep: the context's own errors, one
// Timeout for a silent peer and one datagram sent, no failed socket
// kept, and its pool bound per server.
func TestDatagramClientConformance(t *testing.T) {
	ctx := context.Background()
	query := func(i int) *dnswire.Message {
		return dnswire.NewQuery(uint16(100+i), dnswire.NewName(fmt.Sprintf("q%d.a.com.", i)), dnswire.TypeA)
	}
	swallowAll := func(int) reaction { return swallow }

	t.Run("context deadline beats Timeout and is the error", func(t *testing.T) {
		srv := newDatagramPeer(t, swallowAll)
		r := NewDo53(srv.addr(), &dnsclient.Client{Timeout: 5 * time.Second})
		short, cancel := context.WithTimeout(ctx, 80*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, _, err := r.Resolve(short, query(0))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want context.DeadlineExceeded", err)
		}
		if elapsed := time.Since(start); elapsed < 80*time.Millisecond || elapsed > time.Second {
			t.Errorf("the exchange took %v, want about 80ms", elapsed)
		}
	})

	// The stream clients' known limit holds here too: a bare cancel()
	// ends the exchange at the socket deadline.
	t.Run("cancelled context is the error", func(t *testing.T) {
		srv := newDatagramPeer(t, swallowAll)
		const timeout = 300 * time.Millisecond
		r := NewDo53(srv.addr(), &dnsclient.Client{Timeout: timeout})
		cancellable, cancel := context.WithCancel(ctx)
		time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		_, _, err := r.Resolve(cancellable, query(0))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > timeout*3/2 {
			t.Errorf("the cancelled exchange took %v, want no more than its Timeout (%v)", elapsed, timeout)
		}
	})

	t.Run("context cancelled before the query", func(t *testing.T) {
		srv := newDatagramPeer(t, func(int) reaction { return answer })
		r := NewDo53(srv.addr(), &dnsclient.Client{Timeout: 3 * time.Second})
		if _, _, err := r.Resolve(ctx, query(0)); err != nil {
			t.Fatal(err)
		}
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if _, _, err := r.Resolve(cancelled, query(1)); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		resp, _, err := r.Resolve(ctx, query(2))
		if err != nil || resp.Header.ID != 102 {
			t.Fatalf("exchange after the cancelled one: %v, want the answer to 102", err)
		}
		if sockets, asked := srv.seen(); sockets != 1 || asked != 2 {
			t.Errorf("peer saw %d sockets and %d queries, want 1 and 2: the pooled socket, and the cancelled query not sent", sockets, asked)
		}
	})

	t.Run("silent peer costs one Timeout and one datagram", func(t *testing.T) {
		srv := newDatagramPeer(t, func(nth int) reaction {
			if nth == 0 {
				return answer
			}
			return swallow
		})
		const timeout = 300 * time.Millisecond
		r := NewDo53(srv.addr(), &dnsclient.Client{Timeout: timeout})
		if _, _, err := r.Resolve(ctx, query(0)); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, _, err := r.Resolve(ctx, query(1))
		elapsed := time.Since(start)
		if !dnsclient.IsTimeout(err) {
			t.Fatalf("err = %v, want a timeout", err)
		}
		if elapsed < timeout || elapsed > timeout*3/2 {
			t.Errorf("silent peer held the exchange for %v, want one Timeout (%v)", elapsed, timeout)
		}
		if sockets, asked := srv.seen(); sockets != 1 || asked != 2 {
			t.Errorf("peer saw %d sockets and %d queries, want 1 and 2: the pooled socket, and no resend", sockets, asked)
		}
		if n := openSockets(t, srv); n != 0 {
			t.Errorf("%d sockets open after the timeout, want 0", n)
		}
	})

	t.Run("failed socket is not kept", func(t *testing.T) {
		srv := newDatagramPeer(t, func(nth int) reaction {
			if nth == 0 {
				return swallow
			}
			return answer
		})
		r := NewDo53(srv.addr(), &dnsclient.Client{Timeout: 3 * time.Second})
		short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		_, _, err := r.Resolve(short, query(0))
		cancel()
		if err == nil {
			t.Fatal("the swallowed query was answered")
		}
		// Closed, so the reply the peer may still send has no socket to
		// wait in for the next query.
		if n := openSockets(t, srv); n != 0 {
			t.Errorf("%d sockets open after the failure, want 0", n)
		}
		resp, _, err := r.Resolve(ctx, query(1))
		if err != nil || resp.Header.ID != 101 {
			t.Fatalf("exchange after the failed one: %v, want the answer to 101", err)
		}
		if n := openSockets(t, srv); n != 1 {
			t.Errorf("%d sockets open after a success, want 1, pooled", n)
		}
	})

	t.Run("pool bound under concurrency", func(t *testing.T) {
		const workers, perWorker, maxIdle = 12, 10, 4
		srv := newDatagramPeer(t, func(int) reaction { return answer })
		r := NewDo53(srv.addr(), &dnsclient.Client{Timeout: 5 * time.Second})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if _, _, err := r.Resolve(ctx, query(w*perWorker+i)); err != nil {
						t.Errorf("worker %d query %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if n := openSockets(t, srv); n < 1 || n > maxIdle {
			t.Errorf("%d sockets kept, want 1 to %d", n, maxIdle)
		}
		if _, asked := srv.seen(); asked != workers*perWorker {
			t.Errorf("peer read %d queries, want %d", asked, workers*perWorker)
		}
	})

}

// TestHedgingOverDoTTakesASecondConnection: dot.Client holds no lock
// across an exchange, so a hedge over it is a second exchange in flight —
// against a server that sits on the first attempt, the hedge answers. (It
// used to queue behind the first attempt's mutex and hedge nothing.)
func TestHedgingOverDoTTakesASecondConnection(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv := newPeer(t, framedTLS, func(_, nth int) reaction {
		if nth == 0 {
			<-release
		}
		return answer
	})
	c := &dot.Client{Addr: srv.ln.Addr().String(), TLSConfig: tlsutil.InsecureClientConfig(), Timeout: 5 * time.Second}
	defer c.Close()
	m := &Metrics{}
	start := time.Now()
	resp, timing, err := WithHedgingN(NewDoT(c), 20*time.Millisecond, 2, m).Resolve(context.Background(), Query("hedged.a.com.", dnswire.TypeA))
	if err != nil || resp == nil {
		t.Fatalf("hedged resolve: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("the hedge answered after %v: it waited behind the held attempt", elapsed)
	}
	if timing.Attempts != 2 || m.Hedges.Load() != 1 {
		t.Errorf("attempts = %d, hedges = %d; want 2 and 1", timing.Attempts, m.Hedges.Load())
	}
	if conns, _, _ := srv.seen(); conns != 2 {
		t.Errorf("peer saw %d connections, want 2", conns)
	}
}
