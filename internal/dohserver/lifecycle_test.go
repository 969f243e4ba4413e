package dohserver

import (
	"context"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/tlsutil"
)

// TestServerLifecycle holds the DoH front to the lifecycle of the Do53
// and DoT ones: Addr is "" and Shutdown a no-op before listening, a
// bind failure is ListenAndServe's to return, queries are answered over
// TLS while Serve blocks, cancelling drains, Shutdown is idempotent.
func TestServerLifecycle(t *testing.T) {
	unstarted := NewServer(NewHandler(testResolver()).Mux(), nil)
	if got := unstarted.Addr(); got != "" {
		t.Fatalf("Addr before ListenAndServe = %q, want \"\"", got)
	}
	if err := unstarted.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before ListenAndServe: %v", err)
	}

	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	if err := unstarted.ListenAndServe(taken.Addr().String()); err == nil {
		t.Fatal("ListenAndServe on a bound port returned nil")
	}

	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewHandler(testResolver()).Mux(), cfg)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()

	c, err := dohclient.New("https://"+srv.Addr()+DefaultPath, &dohclient.Options{InsecureTLS: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := c.Query(context.Background(), "live.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query while serving: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}

	// The client's connection is idle and kept alive: the drain closes it.
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
	if _, _, err := c.Query(context.Background(), "late.a.com.", dnswire.TypeA); err == nil {
		t.Error("a query was answered after the drain")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after Serve: %v", err)
	}
}

// TestServerShutdownForcesOnExpiry: a request still in flight when the
// drain budget runs out has its connection closed, and Shutdown returns
// the context's error once the server is down.
func TestServerShutdownForcesOnExpiry(t *testing.T) {
	entered, left := make(chan struct{}), make(chan struct{})
	srv := NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
		close(left)
	}), nil)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go http.Get("http://" + srv.Addr() + "/") // fails when the connection is closed
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the context's deadline error", err)
	}
	select {
	case <-left:
	case <-time.After(5 * time.Second):
		t.Fatal("the parked request outlived a forced shutdown")
	}
}
