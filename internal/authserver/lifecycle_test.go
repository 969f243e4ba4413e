package authserver

import (
	"context"
	"testing"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
)

// TestAddrBeforeListen is the regression test for the old panic: Addr
// on a server that never listened dereferenced a nil socket. The
// contract is now "" before ListenAndServe, and Shutdown on an
// unstarted server is a clean no-op.
func TestAddrBeforeListen(t *testing.T) {
	s := NewServer(NewZone("a.com."))
	if got := s.Addr(); got != "" {
		t.Fatalf("Addr before ListenAndServe = %q, want \"\"", got)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before ListenAndServe: %v", err)
	}
}

// TestServeShutdownLifecycle drives the context-aware surface the API
// redesign added: Serve blocks until its context dies, queries are
// answered meanwhile, and the drain completes.
func TestServeShutdownLifecycle(t *testing.T) {
	s := NewServer(testZone(t))
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()

	var c dnsclient.Client
	resp, _, err := c.Query(context.Background(), s.Addr(), "www.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query while serving: %v", err)
	}
	if resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
	// Second shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after Serve: %v", err)
	}
}
