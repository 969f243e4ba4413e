package dot

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/recursive"
	"repro/internal/tlsutil"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	res := recursive.New(nil)
	res.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		m := q.Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA,
			Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.9")},
		})
		return m, nil
	}))
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(res, cfg)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv
}

func TestQueryOverTLS(t *testing.T) {
	srv := testServer(t)
	c := &Client{Addr: srv.Addr(), TLSConfig: tlsutil.InsecureClientConfig()}
	defer c.Close()
	resp, timing, err := c.Query(context.Background(), "dot1.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if timing.Reused {
		t.Error("first query claims reuse")
	}
	if timing.TLSHandshake <= 0 || timing.Connect <= 0 {
		t.Errorf("timing = %+v, want positive handshake costs", timing)
	}
}

func TestConnectionReuse(t *testing.T) {
	srv := testServer(t)
	c := &Client{Addr: srv.Addr(), TLSConfig: tlsutil.InsecureClientConfig()}
	defer c.Close()
	ctx := context.Background()
	if _, _, err := c.Query(ctx, "r1.a.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	_, timing, err := c.Query(ctx, "r2.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !timing.Reused {
		t.Error("second query did not reuse the connection")
	}
	if timing.Connect != 0 || timing.TLSHandshake != 0 {
		t.Errorf("reused query paid handshakes: %+v", timing)
	}
	// Reused round trips must be cheaper than the cold exchange.
	if timing.Total <= 0 {
		t.Errorf("total = %v", timing.Total)
	}
}

// TestReconnectAfterServerDropsConnection: a pooled connection the server
// has closed costs exactly one redial, and the query is answered.
func TestReconnectAfterServerDropsConnection(t *testing.T) {
	// The peer closes its first connection behind the answer.
	srv := newPeer(t, func(conn, _ int) reaction {
		if conn == 0 {
			return answerThenClose
		}
		return answer
	})
	c := &Client{Addr: srv.addr(), TLSConfig: tlsutil.InsecureClientConfig(), Timeout: 3 * time.Second}
	defer c.Close()
	ctx := context.Background()
	if _, _, err := c.Query(ctx, "a.a.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if c.pool.Idle() != 1 {
		t.Fatalf("%d idle connections after the first query, want 1", c.pool.Idle())
	}
	resp, timing, err := c.Query(ctx, "b.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query after connection drop: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if timing.Reused || timing.Connect <= 0 || timing.TLSHandshake <= 0 {
		t.Errorf("timing = %+v, want the fresh connection's", timing)
	}
	if conns, _, asked := srv.seen(); conns != 2 || len(asked) != 2 {
		t.Errorf("server saw %d connections and %d queries, want 2 and 2: one redial", conns, len(asked))
	}
	if c.pool.Idle() != 1 {
		t.Errorf("%d idle connections after the redial, want 1", c.pool.Idle())
	}
}

func TestServFail(t *testing.T) {
	res := recursive.New(nil)
	res.SetDefault(recursive.UpstreamFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		return nil, context.DeadlineExceeded
	}))
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(res, cfg)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	c := &Client{Addr: srv.Addr(), TLSConfig: tlsutil.InsecureClientConfig()}
	defer c.Close()
	resp, _, err := c.Query(context.Background(), "f.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestServerRequiresCertificate(t *testing.T) {
	srv := NewServer(recursive.New(nil), nil)
	if err := srv.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Fatal("server started without a certificate")
	}
}

func TestClientBadAddress(t *testing.T) {
	c := &Client{Addr: "no-port"}
	if _, _, err := c.Query(context.Background(), "x.", dnswire.TypeA); err == nil {
		t.Fatal("query to bad address succeeded")
	}
}
