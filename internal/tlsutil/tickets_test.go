package tlsutil_test

import (
	"context"
	"crypto/tls"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dot"
	"repro/internal/tlsutil"
)

// TestOurClientsGetNoSessionTickets: a TLS 1.3 server issues a session
// ticket only to a client that offers psk_key_exchange_modes, which Go's
// client does only when its config has a ClientSessionCache. None of
// ours does, so a self-signed front (ServerConfig) issues them nothing:
// the DoH engine, dot.Client and a bare InsecureClientConfig dial each
// get 0 tickets, and the same dial with a session cache gets 1, which
// shows that the count sees a ticket when there is one. Each front's
// handshake still derives the resumption secret; only the ticket is
// skipped.
func TestOurClientsGetNoSessionTickets(t *testing.T) {
	ctx := context.Background()
	q := dnswire.NewQuery(0x5151, "ticket.a.com.", dnswire.TypeA)
	// The server closes each connection after its handshake, so an
	// exchange fails; the handshake is what is counted.
	for _, tc := range []struct {
		client string
		dial   func(addr string)
		want   int64
	}{
		{"the DoH engine", func(addr string) {
			c, err := dohclient.New("https://"+addr+"/dns-query", &dohclient.Options{InsecureTLS: true, Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.CloseIdleConnections()
			_, _, _ = c.Exchange(ctx, q)
		}, 0},
		{"dot.Client", func(addr string) {
			c := &dot.Client{Addr: addr, TLSConfig: tlsutil.InsecureClientConfig(), Timeout: 5 * time.Second}
			defer c.Close()
			_, _, _ = c.Exchange(ctx, q)
		}, 0},
		{"InsecureClientConfig", func(addr string) {
			handshakeWith(t, addr, tlsutil.InsecureClientConfig())
		}, 0},
		{"InsecureClientConfig with a ClientSessionCache", func(addr string) {
			cfg := tlsutil.InsecureClientConfig()
			cfg.ClientSessionCache = tls.NewLRUClientSessionCache(1)
			handshakeWith(t, addr, cfg)
		}, 1},
	} {
		handshakes, tickets := countTickets(t, tc.dial)
		if handshakes == 0 {
			t.Errorf("%s: no handshake reached the server", tc.client)
		}
		if tickets != tc.want*handshakes {
			t.Errorf("%s: %d tickets in %d handshakes, want %d each", tc.client, tickets, handshakes, tc.want)
		}
	}
}

// countTickets serves ServerConfig on a loopback listener, completing
// each handshake and closing the connection, while dial runs against
// it; it returns the handshakes completed and the tickets issued.
func countTickets(t *testing.T, dial func(addr string)) (handshakes, tickets int64) {
	t.Helper()
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	var issued, done atomic.Int64
	cfg.WrapSession = func(cs tls.ConnectionState, ss *tls.SessionState) ([]byte, error) {
		issued.Add(1)
		return cfg.EncryptTicket(cs, ss)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if conn.(*tls.Conn).Handshake() == nil {
				done.Add(1)
			}
			conn.Close()
		}
	}()
	dial(ln.Addr().String())
	ln.Close()
	<-served
	return done.Load(), issued.Load()
}

// handshakeWith dials addr with cfg and completes the client's side.
func handshakeWith(t *testing.T, addr string, cfg *tls.Config) {
	t.Helper()
	conn, err := tls.Dial("tcp", addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reading takes in the server's post-handshake messages, the ticket
	// among them, until the server closes.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [1]byte
	_, _ = conn.Read(buf[:])
	conn.Close()
}
