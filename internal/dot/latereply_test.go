package dot

import (
	"context"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/tlsutil"
)

// TestFailedFreshConnectionIsNotKept: a query that times out on the
// connection it dialled itself used to leave that connection pooled
// (only a *reused* one was dropped on error). The server's late reply
// then sat in the stream, and the next query read it: ID mismatch, and
// the one retry spent on a query that had nothing wrong with it — every
// query sent twice. Now the failed exchange closes its connection and
// the next query starts clean.
func TestFailedFreshConnectionIsNotKept(t *testing.T) {
	// The peer holds the first query of the first connection until
	// release is closed — past the client's deadline — and answers
	// everything else at once.
	release := make(chan struct{})
	srv := newPeer(t, func(conn, n int) reaction {
		if conn == 0 && n == 0 {
			<-release
		}
		return answer
	})
	c := &Client{Addr: srv.addr(), TLSConfig: tlsutil.InsecureClientConfig()}
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
	if c.pool.Idle() != 0 {
		t.Error("the connection the query timed out on is still pooled")
	}

	close(release) // the late reply to query 1 goes out on the old stream now
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
	conns, _, asked := srv.seen()
	if len(asked) != 2 || asked[0] != 1 || asked[1] != 2 {
		t.Errorf("server was asked %v, want [1 2]: query 2 sent once, on a fresh connection", asked)
	}
	if conns != 2 {
		t.Errorf("server saw %d connections, want 2", conns)
	}
}
