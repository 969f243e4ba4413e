package recursive

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
)

// TestServerLifecycle drives the Do53 front's one lifecycle: Addr is ""
// and Shutdown a no-op before listening, queries resolve while the
// server serves, Shutdown drains and returns nil, a later query fails,
// and a second Shutdown returns nil.
func TestServerLifecycle(t *testing.T) {
	var unstarted Server
	if got := unstarted.Addr(); got != "" {
		t.Fatalf("Addr before ListenAndServe = %q, want \"\"", got)
	}
	if err := unstarted.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before ListenAndServe: %v", err)
	}

	res := New(nil)
	res.SetDefault(UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		m := q.Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA,
			Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.7")},
		})
		return m, nil
	}))
	srv := NewServer(res)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}

	c := dnsclient.Client{Timeout: time.Second}
	resp, _, err := c.Query(context.Background(), srv.Addr(), "live.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query while serving: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, _, err := c.Query(context.Background(), srv.Addr(), "late.a.com.", dnswire.TypeA); err == nil {
		t.Error("a query was answered after Shutdown")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
