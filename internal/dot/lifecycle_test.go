package dot

import (
	"context"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/tlsutil"
)

// TestServerLifecycle drives the DoT front's one lifecycle: Addr is ""
// and Shutdown a no-op before listening, an established client is
// answered while the server serves, Shutdown drains and returns nil, a
// later query fails, and a second Shutdown returns nil.
func TestServerLifecycle(t *testing.T) {
	var unstarted Server
	if got := unstarted.Addr(); got != "" {
		t.Fatalf("Addr before ListenAndServe = %q, want \"\"", got)
	}
	if err := unstarted.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before ListenAndServe: %v", err)
	}

	srv := testServer(t)
	c := &Client{Addr: srv.Addr(), TLSConfig: tlsutil.InsecureClientConfig(), Timeout: time.Second}
	defer c.Close()
	resp, _, err := c.Query(context.Background(), "live.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query while serving: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, _, err := c.Query(context.Background(), "late.a.com.", dnswire.TypeA); err == nil {
		t.Error("a query was answered after Shutdown")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
