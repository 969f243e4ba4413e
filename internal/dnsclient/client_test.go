package dnsclient

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// echoServer answers every UDP query with a single A record, after
// invoking mangle, which returns the datagrams to send in its place
// (nil drops the query).
func echoServer(t *testing.T, mangle func(resp *dnswire.Message) []*dnswire.Message) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 65535)
		for {
			n, src, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			q, err := dnswire.Unpack(buf[:n])
			if err != nil {
				continue
			}
			resp := q.Reply()
			resp.Answers = append(resp.Answers, dnswire.ResourceRecord{
				Name: q.Questions[0].Name, Type: dnswire.TypeA,
				Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")},
			})
			sends := []*dnswire.Message{resp}
			if mangle != nil {
				sends = mangle(resp)
			}
			for _, m := range sends {
				if wire, err := m.Pack(); err == nil {
					conn.WriteToUDP(wire, src)
				}
			}
		}
	}()
	return conn.LocalAddr().String()
}

func TestQueryBasic(t *testing.T) {
	addr := echoServer(t, nil)
	var c Client
	resp, _, err := c.Query(context.Background(), addr, "host.example.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
}

// TestQueryIgnoresMismatchedID: datagrams that do not answer the query —
// a wrong ID, an echoed question that is not the query's — are skipped,
// and the real answer that follows them is read, the query sent once.
func TestQueryIgnoresMismatchedID(t *testing.T) {
	var calls atomic.Int32
	addr := echoServer(t, func(resp *dnswire.Message) []*dnswire.Message {
		calls.Add(1)
		spoofed, stale := *resp, *resp
		spoofed.Header.ID ^= 0xffff
		stale.Questions = []dnswire.Question{{Name: "other.example.", Type: dnswire.TypeA, Class: dnswire.ClassIN}}
		return []*dnswire.Message{&spoofed, &stale, resp}
	})
	c := Client{Timeout: 3 * time.Second}
	resp, _, err := c.Query(context.Background(), addr, "host.example.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !resp.Questions[0].Name.Equal("host.example.") || calls.Load() != 1 {
		t.Errorf("answer for %s after %d queries, want host.example. after 1", resp.Questions[0].Name, calls.Load())
	}
}

// TestQueryTimesOut: a silent server costs one Timeout, and the query is
// sent once: retrying is resolver.WithRetry's job.
func TestQueryTimesOut(t *testing.T) {
	var calls atomic.Int32
	addr := echoServer(t, func(*dnswire.Message) []*dnswire.Message {
		calls.Add(1)
		return nil // drop everything
	})
	c := Client{Timeout: 50 * time.Millisecond}
	_, _, err := c.Query(context.Background(), addr, "host.example.", dnswire.TypeA)
	if !IsTimeout(err) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d queries, want 1", got)
	}
}

// TestQueryRespectsContextDeadline: the context's deadline, earlier than
// Timeout, ends the exchange and is the error.
func TestQueryRespectsContextDeadline(t *testing.T) {
	addr := echoServer(t, func(*dnswire.Message) []*dnswire.Message { return nil })
	c := Client{Timeout: 10 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Query(ctx, addr, "host.example.", dnswire.TypeA)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Query took %v, context deadline not honored", elapsed)
	}
}

// TestRefusedSocketIsRedialledOnce: a pooled socket refused before any
// reply (ICMP port unreachable: the server it was connected to went
// away) is replaced by a fresh one, once; a fresh socket refused is the
// error.
func TestRefusedSocketIsRedialledOnce(t *testing.T) {
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.LocalAddr().String()
	dead.Close()
	var c Client
	if _, _, err := c.Query(context.Background(), deadAddr, "host.example.", dnswire.TypeA); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Skipf("no ICMP refusal on loopback here: %v", err)
	}

	// A socket connected to the dead port, pooled as the live server's.
	addr := echoServer(t, nil)
	refused, err := net.Dial("udp", deadAddr)
	if err != nil {
		t.Fatal(err)
	}
	c.pool.put(idleConn{conn: refused, addr: addr})
	resp, _, err := c.Query(context.Background(), addr, "host.example.", dnswire.TypeA)
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("Query on a refused pooled socket: %v, want the answer from a fresh one", err)
	}
	if n := c.pool.Idle(); n != 1 {
		t.Errorf("%d idle sockets, want 1: the fresh one", n)
	}
}

func TestExchangeNoQuestion(t *testing.T) {
	var c Client
	_, _, err := c.Exchange(context.Background(), "127.0.0.1:1", &dnswire.Message{})
	if err != ErrNoQuestion {
		t.Fatalf("err = %v, want ErrNoQuestion", err)
	}
}

func TestTCPFraming(t *testing.T) {
	var buf bytes.Buffer
	msg := []byte{0xde, 0xad, 0xbe, 0xef}
	if err := WriteTCPMessage(&buf, msg); err != nil {
		t.Fatalf("WriteTCPMessage: %v", err)
	}
	if buf.Len() != 6 || buf.Bytes()[0] != 0 || buf.Bytes()[1] != 4 {
		t.Fatalf("framed = %x", buf.Bytes())
	}
	got, err := ReadTCPMessage(&buf)
	if err != nil {
		t.Fatalf("ReadTCPMessage: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %x, want %x", got, msg)
	}
}

func TestTCPFramingRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTCPMessage(&buf, make([]byte, 0x10000)); err == nil {
		t.Fatal("WriteTCPMessage accepted 64 KiB+ message")
	}
}

func TestTCPFramingShortRead(t *testing.T) {
	r := bytes.NewReader([]byte{0, 10, 1, 2, 3}) // claims 10, has 3
	if _, err := ReadTCPMessage(r); err == nil {
		t.Fatal("ReadTCPMessage accepted short message")
	}
}

func TestRandomIDVaries(t *testing.T) {
	seen := map[uint16]bool{}
	for i := 0; i < 64; i++ {
		seen[RandomID()] = true
	}
	if len(seen) < 32 {
		t.Errorf("RandomID produced only %d distinct values in 64 draws", len(seen))
	}
}

func TestExchangeTCPDirect(t *testing.T) {
	// A minimal TCP DNS server with length framing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				raw, err := ReadTCPMessage(conn)
				if err != nil {
					return
				}
				q, err := dnswire.Unpack(raw)
				if err != nil {
					return
				}
				resp := q.Reply()
				resp.Answers = append(resp.Answers, dnswire.ResourceRecord{
					Name: q.Questions[0].Name, Type: dnswire.TypeA,
					Class: dnswire.ClassIN, TTL: 60,
					Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.2")},
				})
				wire, err := resp.Pack()
				if err != nil {
					return
				}
				WriteTCPMessage(conn, wire)
			}()
		}
	}()

	var c Client
	q := dnswire.NewQuery(0x4242, "tcp.example.", dnswire.TypeA)
	resp, err := c.ExchangeTCP(context.Background(), ln.Addr().String(), q)
	if err != nil {
		t.Fatalf("ExchangeTCP: %v", err)
	}
	if len(resp.Answers) != 1 || resp.Header.ID != 0x4242 {
		t.Fatalf("response = %v", resp)
	}
}

func TestExchangeTCPIDMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		raw, err := ReadTCPMessage(conn)
		if err != nil {
			return
		}
		q, err := dnswire.Unpack(raw)
		if err != nil {
			return
		}
		resp := q.Reply()
		resp.Header.ID ^= 0xffff
		wire, _ := resp.Pack()
		WriteTCPMessage(conn, wire)
	}()
	var c Client
	_, err = c.ExchangeTCP(context.Background(), ln.Addr().String(),
		dnswire.NewQuery(7, "x.example.", dnswire.TypeA))
	if !errors.Is(err, ErrIDMismatch) {
		t.Fatalf("err = %v, want ErrIDMismatch", err)
	}
}

func TestUDPIgnoresMalformedDatagram(t *testing.T) {
	// Server sends garbage first, then the real answer.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 65535)
		n, src, err := conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		conn.WriteToUDP([]byte{0xde, 0xad}, src) // garbage
		q, err := dnswire.Unpack(buf[:n])
		if err != nil {
			return
		}
		resp := q.Reply()
		resp.Answers = append(resp.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA,
			Class: dnswire.ClassIN, TTL: 1,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.3")},
		})
		wire, _ := resp.Pack()
		conn.WriteToUDP(wire, src)
	}()
	c := Client{Timeout: 3 * time.Second}
	resp, _, err := c.Query(context.Background(), conn.LocalAddr().String(), "m.example.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
}

// TestWarmExchangeAllocationFree: an exchange on a pooled socket
// allocates nothing, the Attempt being a value on the caller's stack.
// The peer answers in place (QR set, the query echoed) without
// allocating either, since AllocsPerRun counts every goroutine.
func TestWarmExchangeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 512)
		for {
			n, src, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			buf[2] |= 0x80
			conn.WriteToUDPAddrPort(buf[:n], src)
		}
	}()
	var c Client
	addr := conn.LocalAddr().String()
	q := dnswire.NewQuery(1, "host.example.", dnswire.TypeA)
	exchange := func() {
		resp, _, err := c.Exchange(context.Background(), addr, q)
		if err != nil {
			t.Fatal(err)
		}
		dnswire.PutMessage(resp)
	}
	exchange()
	if n := testing.AllocsPerRun(100, exchange); n != 0 {
		t.Errorf("warm exchange: %v allocations, want 0", n)
	}
}
