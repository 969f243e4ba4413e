package dohclient

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/recursive"
)

// stackHandler is a DoH handler over a resolver that answers every
// question with one A record.
func stackHandler() *dohserver.Handler {
	r := recursive.New(nil)
	r.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		m := q.Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA,
			Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.2")},
		})
		return m, nil
	}))
	return dohserver.NewHandler(r)
}

func newStack(t *testing.T) (*httptest.Server, *dohserver.Handler) {
	t.Helper()
	h := stackHandler()
	srv := httptest.NewServer(h.Mux())
	t.Cleanup(srv.Close)
	return srv, h
}

func TestQueryGET(t *testing.T) {
	srv, _ := newStack(t)
	c, err := New(srv.URL+dohserver.DefaultPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, timing, err := c.Query(context.Background(), "q1.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if timing.Total <= 0 {
		t.Errorf("timing.Total = %v", timing.Total)
	}
	st := c.Stats()
	if st.Exchanges != 1 || st.HTTPErrors != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueryPOST(t *testing.T) {
	srv, _ := newStack(t)
	c, err := New(srv.URL+dohserver.DefaultPath, &Options{POST: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := c.Query(context.Background(), "q2.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
}

func TestConnectionReuseDetected(t *testing.T) {
	srv, _ := newStack(t)
	c, err := New(srv.URL+dohserver.DefaultPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := c.Query(context.Background(), "r1.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if first.Reused {
		t.Error("first exchange claims connection reuse")
	}
	_, second, err := c.Query(context.Background(), "r2.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Reused {
		t.Error("second exchange did not reuse the connection")
	}
	if second.Connect != 0 {
		t.Errorf("reused exchange reports Connect = %v", second.Connect)
	}

	// After dropping idles, the next exchange pays the handshake again.
	c.CloseIdleConnections()
	_, third, err := c.Query(context.Background(), "r3.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if third.Reused {
		t.Error("exchange after CloseIdleConnections still reused")
	}
	st := c.Stats()
	if st.Exchanges != 3 || st.Reused != 1 {
		t.Errorf("stats = %+v, want 3 exchanges / 1 reused", st)
	}
}

func TestTLSEndToEnd(t *testing.T) {
	r := recursive.New(nil)
	r.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		m := q.Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA,
			Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.3")},
		})
		return m, nil
	}))
	srv := httptest.NewTLSServer(dohserver.NewHandler(r).Mux())
	defer srv.Close()

	c, err := New(srv.URL+dohserver.DefaultPath, &Options{InsecureTLS: true})
	if err != nil {
		t.Fatal(err)
	}
	_, timing, err := c.Query(context.Background(), "tls.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query over TLS: %v", err)
	}
	if timing.TLSHandshake <= 0 {
		t.Errorf("TLSHandshake = %v, want > 0 on first TLS exchange", timing.TLSHandshake)
	}
	// Second query over the warm connection has no handshake cost.
	_, reused, err := c.Query(context.Background(), "tls2.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !reused.Reused || reused.TLSHandshake != 0 {
		t.Errorf("reused = %+v", reused)
	}
}

func TestRejectsBadScheme(t *testing.T) {
	if _, err := New("ftp://example.com/dns-query", nil); err == nil {
		t.Fatal("New accepted ftp scheme")
	}
	if _, err := New("://bad", nil); err == nil {
		t.Fatal("New accepted malformed URL")
	}
}

func TestHTTPErrorSurfaced(t *testing.T) {
	srv := httptest.NewServer(nil) // 404 for everything
	defer srv.Close()
	c, err := New(srv.URL+"/dns-query", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Query(context.Background(), "x.a.com.", dnswire.TypeA)
	if err == nil {
		t.Fatal("Query succeeded against 404 server")
	}
	if st := c.Stats(); st.HTTPErrors != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWrongContentTypeRejected(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Write([]byte("not dns"))
	}))
	defer srv.Close()
	c, err := New(srv.URL+"/dns-query", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(context.Background(), "x.a.com.", dnswire.TypeA); err == nil {
		t.Fatal("accepted text/plain body")
	}
	if st := c.Stats(); st.WireErrors != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGarbageBodyRejected(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/dns-message")
		w.Write([]byte{1, 2, 3})
	}))
	defer srv.Close()
	c, err := New(srv.URL+"/dns-query", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(context.Background(), "x.a.com.", dnswire.TypeA); err == nil {
		t.Fatal("accepted undecodable body")
	}
}

func TestIDMismatchRejected(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Answer a different query ID than asked.
		m := dnswire.NewQuery(0xBEEF, "x.a.com.", dnswire.TypeA).Reply()
		wire, _ := m.Pack()
		w.Header().Set("Content-Type", "application/dns-message")
		w.Write(wire)
	}))
	defer srv.Close()
	c, err := New(srv.URL+"/dns-query", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Query(context.Background(), "x.a.com.", dnswire.TypeA)
	if err == nil || !strings.Contains(err.Error(), "ID mismatch") {
		t.Fatalf("err = %v, want ID mismatch", err)
	}
}

func TestContextCancellation(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer srv.Close()
	defer close(block)
	c, err := New(srv.URL+"/dns-query", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, _, err := c.Query(ctx, "x.a.com.", dnswire.TypeA); err == nil {
		t.Fatal("query against a hung server succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("cancellation not honored promptly")
	}
}

func TestHTTP2EndToEnd(t *testing.T) {
	// Public DoH providers serve over HTTP/2; verify the stack works
	// there and that streams multiplex over one connection.
	var proto string
	r := recursive.New(nil)
	r.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		m := q.Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA,
			Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.7")},
		})
		return m, nil
	}))
	h := dohserver.NewHandler(r)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		proto = req.Proto
		h.ServeHTTP(w, req)
	}))
	srv.EnableHTTP2 = true
	srv.StartTLS()
	defer srv.Close()

	c, err := New(srv.URL+"/dns-query", &Options{HTTPClient: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := c.Query(context.Background(), "h2.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query over h2: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if proto != "HTTP/2.0" {
		t.Errorf("served over %s, want HTTP/2.0", proto)
	}
	// Second query reuses the same h2 connection (stream, not dial).
	_, timing, err := c.Query(context.Background(), "h2b.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !timing.Reused {
		t.Error("second h2 query did not reuse the connection")
	}
}

// newCountingStack is newStack plus a server-side count of accepted
// TCP connections, the ground truth for reuse assertions. wrap, when
// non-nil, decorates the handler (barriers, streaming) and is
// installed before the server starts.
func newCountingStack(t *testing.T, wrap func(http.Handler) http.Handler) (*httptest.Server, *connCounter) {
	t.Helper()
	var h http.Handler = stackHandler().Mux()
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewUnstartedServer(h)
	var conns connCounter
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			conns.Add(1)
			conns.open.Add(1)
		case http.StateClosed:
			conns.open.Add(-1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

// connCounter counts the connections a server accepted (the embedded
// counter) and how many of them are still open.
type connCounter struct {
	atomic.Int32
	open atomic.Int32
}

// TestMaxIdleConnsPerHostCoversHedgeFanOut pins the pool-sizing fix: a
// hedge fan-out above the idle cap discards connections after every
// exchange, so the next wave re-dials and t_DoHR silently includes
// fresh handshakes. A barrier handler forces each wave of queries to
// hold fanOut simultaneous connections.
func TestMaxIdleConnsPerHostCoversHedgeFanOut(t *testing.T) {
	const fanOut = 6
	run := func(t *testing.T, opts *Options) int32 {
		arrive := make(chan struct{})
		release := make(chan struct{})
		srv, conns := newCountingStack(t, func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				arrive <- struct{}{}
				<-release
				next.ServeHTTP(w, r)
			})
		})
		c, err := New(srv.URL+dohserver.DefaultPath, opts)
		if err != nil {
			t.Fatal(err)
		}
		wave := func(tag string) {
			var wg sync.WaitGroup
			for i := 0; i < fanOut; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					name := dnswire.NewName(fmt.Sprintf("%s%d.a.com.", tag, i))
					if _, _, err := c.Query(context.Background(), name, dnswire.TypeA); err != nil {
						t.Errorf("query %s%d: %v", tag, i, err)
					}
				}(i)
			}
			for i := 0; i < fanOut; i++ {
				<-arrive
			}
			for i := 0; i < fanOut; i++ {
				release <- struct{}{}
			}
			wg.Wait()
		}
		wave("w1")
		wave("w2")
		return conns.Load()
	}
	t.Run("pool sized to fan-out", func(t *testing.T) {
		if got := run(t, &Options{MaxIdleConnsPerHost: fanOut}); got != fanOut {
			t.Errorf("two waves used %d connections, want %d (second wave must reuse all)", got, fanOut)
		}
	})
	t.Run("default pool discards above cap", func(t *testing.T) {
		// Documents the failure mode the fix exists for: with the
		// default cap of 4, the two extra wave-1 connections are
		// discarded and wave 2 dials again.
		if got := run(t, nil); got <= fanOut {
			t.Errorf("two waves used %d connections; expected re-dials above %d with the default cap", got, fanOut)
		}
	})
}
