package dohclient

import (
	"context"
	"crypto/tls"
	"io"
	"log"
	"net"
	"net/http"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/tlsutil"
)

// TestColdExchangeAllocBudget gates the cold path, the paper's t_DoH:
// one GET on a fresh TCP + TLS 1.3 connection to the dohserver mux
// behind an http.Server on tlsutil's certificate, as the benchmark's
// doh_cold runs it. Client and server share the process, so the count
// is both sides of the handshake plus one exchange. Each run waits for
// the server to close its side, so no connection's teardown falls
// outside the run that opened it.
func TestColdExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinVersion = tls.VersionTLS13 // what both sides negotiate anyway
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{}, 1)
	srv := &http.Server{
		Handler:   stackHandler().Mux(),
		TLSConfig: cfg,
		ErrorLog:  log.New(io.Discard, "", 0),
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateClosed {
				closed <- struct{}{}
			}
		},
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeTLS(ln, "", "") }()
	defer func() {
		srv.Close()
		<-served
	}()

	c, err := New("https://"+ln.Addr().String()+dohserver.DefaultPath, &Options{InsecureTLS: true})
	if err != nil {
		t.Fatal(err)
	}
	q := dnswire.NewQuery(0x4242, "cold.a.com.", dnswire.TypeA)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exchange := func() {
		resp, timing, err := c.Exchange(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if timing.Reused {
			t.Fatal("a cold exchange reused a connection")
		}
		dnswire.PutMessage(resp)
		c.CloseIdleConnections()
		<-closed
	}
	exchange() // the answer is cached from here on; warm the pools
	// Measured: 899 (972 with the ECDSA P-256 leaf); about nine tenths
	// are the two handshakes. The gate leaves 2 %.
	const budget = 915
	n := testing.AllocsPerRun(100, exchange)
	t.Logf("cold GET exchange, client and server: %.1f allocs", n)
	if n > budget {
		t.Errorf("cold GET exchange: %.1f allocs, budget %d", n, budget)
	}
}
