package dohclient

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deadline"
	"repro/internal/dnswire"
	"repro/internal/dohserver"
)

// eventually polls cond, yielding in between, until it holds or 5s pass.
func eventually(cond func() bool) bool {
	for end := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}

// TestWarmExchangeLeavesLazyUnarmed: a warm exchange under a
// deadline.Lazy (what resolver.WithTimeout hands the engine) watches the
// Lazy's parent for cancellation, so it builds no timer context and
// allocates, client and server together, what it allocates under that
// parent.
func TestWarmExchangeLeavesLazyUnarmed(t *testing.T) {
	srv, _ := newStack(t)
	c, err := New(srv.URL+dohserver.DefaultPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseIdleConnections()
	q := dnswire.NewQuery(0x4242, "warm.a.com.", dnswire.TypeA)
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	warm := false
	exchange := func(ctx context.Context) {
		resp, timing, err := c.Exchange(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if timing.Reused != warm {
			t.Fatalf("Reused = %v, want %v", timing.Reused, warm)
		}
		dnswire.PutMessage(resp)
	}
	var lazy deadline.Lazy
	underLazy := func() {
		lazy.Reset(parent, time.Now().Add(time.Minute))
		exchange(&lazy)
		if lazy.Armed() {
			t.Fatal("a warm exchange armed the Lazy it was handed")
		}
		lazy.Stop()
	}
	exchange(parent) // dial, and fill the server's cache
	warm = true
	underLazy()
	if raceEnabled {
		return // allocation counts are not meaningful under the race detector
	}
	base := testing.AllocsPerRun(200, func() { exchange(parent) })
	n := testing.AllocsPerRun(200, underLazy)
	t.Logf("warm exchange, client and server: %.1f allocs under the parent, %.1f under a Lazy", base, n)
	if n > base+1 {
		t.Errorf("warm exchange under a Lazy: %.1f allocs, %.1f under its parent", n, base)
	}
}

// TestWatchersEndWithTheirConnections: each connection's cancellation
// watcher ends with it, however the connection ends — closed as idle,
// discarded above the idle cap, failed, found dead and redialled, or
// aborted by its context — so a client's goroutines return to the
// baseline once its idle connections are closed.
func TestWatchersEndWithTheirConnections(t *testing.T) {
	const maxIdle, fanOut = 2, 6
	// The server's behaviour for the requests after the fan-out.
	const (
		serveOK = iota
		serveThenClose
		serveGarbage
	)
	var mode atomic.Int32
	var arrived sync.WaitGroup
	arrived.Add(fanOut)
	srv := newRawServer(t, func(w io.Writer, nth int, r []byte) bool {
		if nth < fanOut {
			// Hold the first requests until all have arrived, so the
			// fan-out holds fanOut connections at once.
			arrived.Done()
			arrived.Wait()
		}
		switch mode.Load() {
		case serveThenClose:
			// A keep-alive response on a connection the server then
			// closes: the client pools it dead.
			io.WriteString(w, withLength("HTTP/1.1 200 OK\r\n"+okType, r))
			return false
		case serveGarbage:
			io.WriteString(w, "not HTTP at all\r\n\r\n")
			return false
		}
		io.WriteString(w, withLength("HTTP/1.1 200 OK\r\n"+okType, r))
		return true
	})
	base := runtime.NumGoroutine()
	c, err := New(srv.url, &Options{MaxIdleConnsPerHost: maxIdle})
	if err != nil {
		t.Fatal(err)
	}
	query := func(ctx context.Context, name string) error {
		_, _, err := c.Query(ctx, dnswire.NewName(name), dnswire.TypeA)
		return err
	}

	var wg sync.WaitGroup
	for i := 0; i < fanOut; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := query(context.Background(), fmt.Sprintf("fan%d.a.com.", i)); err != nil {
				t.Errorf("fan-out query %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if n := c.e.pool.Idle(); n != maxIdle {
		t.Fatalf("%d idle connections after the fan-out, want %d", n, maxIdle)
	}
	for i := 0; i < 3; i++ { // cold exchanges
		c.CloseIdleConnections()
		if err := query(context.Background(), "cold.a.com."); err != nil {
			t.Fatalf("cold query: %v", err)
		}
	}
	mode.Store(serveThenClose)
	if err := query(context.Background(), "then-close.a.com."); err != nil {
		t.Fatal(err)
	}
	mode.Store(serveOK)
	// The idle connection is dead: the query is asked again on a fresh one.
	if _, timing, err := c.Query(context.Background(), "redial.a.com.", dnswire.TypeA); err != nil || timing.Reused {
		t.Fatalf("query on a dead idle connection: Reused = %v, err = %v", timing.Reused, err)
	}
	mode.Store(serveGarbage)
	if err := query(context.Background(), "garbage.a.com."); err == nil {
		t.Fatal("a garbage response was accepted")
	}
	mode.Store(serveOK)
	if err := query(context.Background(), "pooled.a.com."); err != nil {
		t.Fatal(err)
	}
	// The pooled connection's watcher aborts the exchange at once.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := query(cancelled, "cancelled.a.com."); err == nil {
		t.Fatal("a query under a cancelled context succeeded")
	}
	if err := query(context.Background(), "last.a.com."); err != nil {
		t.Fatal(err)
	}

	c.CloseIdleConnections()
	if !eventually(func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("%d goroutines after closing every connection, %d before the client", runtime.NumGoroutine(), base)
	}
}

// TestDroppedClientClosesItsConnections: a client dropped with idle
// connections still frees its sockets once collected, although each
// connection's watcher keeps the connection itself reachable.
func TestDroppedClientClosesItsConnections(t *testing.T) {
	srv, conns := newCountingStack(t, nil)
	func() {
		c, err := New(srv.URL+dohserver.DefaultPath, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, _, err := c.Query(context.Background(), dnswire.NewName(fmt.Sprintf("d%d.a.com.", i)), dnswire.TypeA); err != nil {
					t.Errorf("query %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		if c.e.pool.Idle() == 0 {
			t.Fatal("no idle connection to drop")
		}
	}()
	if !eventually(func() bool {
		runtime.GC()
		return conns.open.Load() == 0
	}) {
		t.Errorf("server still has %d of %d connections open after the client was collected", conns.open.Load(), conns.Load())
	}
}
