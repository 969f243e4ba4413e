package authserver

import (
	"context"
	"testing"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
)

// TestServeShutdownLifecycle drives the one lifecycle: Addr is "" and
// Shutdown a no-op before ListenAndServe (once, Addr on a server that
// never listened dereferenced a nil socket), queries are answered while
// the server serves, Shutdown drains and returns nil, a later query
// fails, and a second Shutdown returns nil.
func TestServeShutdownLifecycle(t *testing.T) {
	s := NewServer(testZone(t))
	if got := s.Addr(); got != "" {
		t.Fatalf("Addr before ListenAndServe = %q, want \"\"", got)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before ListenAndServe: %v", err)
	}
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}

	c := dnsclient.Client{Timeout: time.Second}
	resp, _, err := c.Query(context.Background(), s.Addr(), "www.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query while serving: %v", err)
	}
	if resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, _, err := c.Query(context.Background(), s.Addr(), "late.a.com.", dnswire.TypeA); err == nil {
		t.Error("a query was answered after Shutdown")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
