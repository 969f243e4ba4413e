package dot

import (
	"context"
	"crypto/tls"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/tlsutil"
)

// lateServer is a DoT server that holds the first query of every
// connection until release is closed — past the client's deadline — and
// answers everything else at once. It records what it was asked, per
// connection.
type lateServer struct {
	ln      net.Listener
	release chan struct{}

	mu    sync.Mutex
	conns int
	asked []uint16 // query IDs in arrival order, all connections
}

func newLateServer(t *testing.T) *lateServer {
	t.Helper()
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &lateServer{ln: ln, release: make(chan struct{})}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns++
			first := s.conns == 1
			s.mu.Unlock()
			go s.serve(conn, first)
		}
	}()
	return s
}

func (s *lateServer) serve(conn net.Conn, holdFirst bool) {
	defer conn.Close()
	for n := 0; ; n++ {
		raw, err := dnsclient.ReadTCPMessage(conn)
		if err != nil {
			return
		}
		q, err := dnswire.Unpack(raw)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.asked = append(s.asked, q.Header.ID)
		s.mu.Unlock()
		if holdFirst && n == 0 {
			<-s.release
		}
		wire, err := q.Reply().Pack()
		if err != nil || dnsclient.WriteTCPMessage(conn, wire) != nil {
			return
		}
	}
}

// TestFailedFreshConnectionIsNotKept: a query that times out on the
// connection it dialled itself used to leave that connection pooled
// (only a *reused* one was dropped on error). The server's late reply
// then sat in the stream, and the next query read it: ID mismatch, and
// the one retry spent on a query that had nothing wrong with it — every
// query sent twice. Now the failed exchange closes its connection and
// the next query starts clean.
func TestFailedFreshConnectionIsNotKept(t *testing.T) {
	srv := newLateServer(t)
	c := &Client{Addr: srv.ln.Addr().String(), TLSConfig: tlsutil.InsecureClientConfig()}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	_, timing, err := c.Exchange(ctx, dnswire.NewQuery(1, "slow.a.com.", dnswire.TypeA))
	cancel()
	if err == nil {
		t.Fatal("the held query succeeded")
	}
	if timing.Reused {
		t.Fatal("first exchange claims a reused connection")
	}
	c.mu.Lock()
	kept := c.conn != nil
	c.mu.Unlock()
	if kept {
		t.Error("the connection the query timed out on is still pooled")
	}

	close(srv.release) // the late reply to query 1 goes out on the old stream now
	time.Sleep(50 * time.Millisecond)

	resp, timing, err := c.Exchange(context.Background(), dnswire.NewQuery(2, "next.a.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("query after the timeout: %v", err)
	}
	if resp.Header.ID != 2 {
		t.Errorf("query 2 was answered with ID %d", resp.Header.ID)
	}
	if timing.Reused {
		t.Error("query 2 ran on the connection query 1 timed out on")
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.asked) != 2 || srv.asked[0] != 1 || srv.asked[1] != 2 {
		t.Errorf("server was asked %v, want [1 2]: query 2 sent once, on a fresh connection", srv.asked)
	}
	if srv.conns != 2 {
		t.Errorf("server saw %d connections, want 2", srv.conns)
	}
}
