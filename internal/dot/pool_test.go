package dot

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/tlsutil"
)

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSilentServerCostsOneTimeout: a reused connection that goes silent
// is a timeout, not a dead connection — the query is not sent again on a
// second connection (it used to be: 2 × Timeout, two connections), the
// connection is not kept, and when the context's deadline was the bound
// the error is the context's.
func TestSilentServerCostsOneTimeout(t *testing.T) {
	// Every connection answers its first query and swallows the rest.
	srv := newPeer(t, func(_, n int) reaction {
		if n == 0 {
			return answer
		}
		return swallow
	})
	const timeout = 300 * time.Millisecond
	c := &Client{Addr: srv.addr(), TLSConfig: tlsutil.InsecureClientConfig(), Timeout: timeout}
	defer c.Close()
	if _, _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "one.a.com.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, timing, err := c.Exchange(context.Background(), dnswire.NewQuery(2, "two.a.com.", dnswire.TypeA))
	elapsed := time.Since(start)
	if !dnsclient.IsTimeout(err) {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed < timeout || elapsed > timeout*3/2 {
		t.Errorf("silent server held the exchange for %v, want one Timeout (%v)", elapsed, timeout)
	}
	if !timing.Reused {
		t.Error("the exchange did not run on the pooled connection")
	}
	if conns, _, asked := srv.seen(); conns != 1 || len(asked) != 2 {
		t.Errorf("server saw %d connections and queries %v, want 1 and [1 2]: a timeout is not redialled", conns, asked)
	}
	if n := c.pool.Idle(); n != 0 {
		t.Errorf("%d idle connections after the timeout, want 0", n)
	}

	// The same under a context deadline shorter than Timeout.
	if _, _, err := c.Exchange(context.Background(), dnswire.NewQuery(3, "three.a.com.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, _, err = c.Exchange(ctx, dnswire.NewQuery(4, "four.a.com.", dnswire.TypeA))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > timeout {
		t.Errorf("the context's deadline held for %v, want about 80ms", elapsed)
	}
	if conns, _, _ := srv.seen(); conns != 2 {
		t.Errorf("server saw %d connections, want 2", conns)
	}
}

// TestConcurrentExchangesTakeTheirOwnConnections: the client holds no
// lock across an exchange, so a fast query beside a held one is answered
// on a second connection at once (it used to wait for the first); after a
// burst the pool keeps at most 4 and closes the rest, and Close closes
// those.
func TestConcurrentExchangesTakeTheirOwnConnections(t *testing.T) {
	release := make(chan struct{})
	srv := newPeer(t, func(conn, n int) reaction {
		if conn == 0 && n == 0 {
			<-release
		}
		return answer
	})
	c := &Client{Addr: srv.addr(), TLSConfig: tlsutil.InsecureClientConfig(), Timeout: 5 * time.Second}
	defer c.Close()

	held := make(chan error, 1)
	go func() {
		_, _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "held.a.com.", dnswire.TypeA))
		held <- err
	}()
	waitFor(t, "the held query to arrive", func() bool { _, _, asked := srv.seen(); return len(asked) == 1 })
	start := time.Now()
	if _, _, err := c.Exchange(context.Background(), dnswire.NewQuery(2, "fast.a.com.", dnswire.TypeA)); err != nil {
		t.Fatalf("fast query beside the held one: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("the fast query took %v: it waited for the held one", elapsed)
	}
	select {
	case err := <-held:
		t.Fatalf("the held query returned (%v) before its release", err)
	default:
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("held query: %v", err)
	}

	// Eight at once: a gate holds every query until all eight are in, so
	// eight connections are in use together.
	const burst = 8
	gate := make(chan struct{})
	srv = newPeer(t, func(int, int) reaction { <-gate; return answer })
	c = &Client{Addr: srv.addr(), TLSConfig: tlsutil.InsecureClientConfig(), Timeout: 5 * time.Second}
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			if _, _, err := c.Exchange(context.Background(), dnswire.NewQuery(id, "burst.a.com.", dnswire.TypeA)); err != nil {
				t.Errorf("burst query %d: %v", id, err)
			}
		}(uint16(10 + i))
	}
	waitFor(t, "the burst to arrive", func() bool { _, _, asked := srv.seen(); return len(asked) == burst })
	close(gate)
	wg.Wait()
	idle := c.pool.Idle()
	if conns, _, _ := srv.seen(); conns != burst || idle != 4 {
		t.Errorf("%d connections dialled, %d idle after the burst; want %d and 4", conns, idle, burst)
	}
	waitFor(t, "the connections over the cap to close", func() bool { _, open, _ := srv.seen(); return open == idle })
	c.Close()
	if n := c.pool.Idle(); n != 0 {
		t.Errorf("%d idle connections after Close", n)
	}
	waitFor(t, "Close to close the pooled connections", func() bool { _, open, _ := srv.seen(); return open == 0 })
}
