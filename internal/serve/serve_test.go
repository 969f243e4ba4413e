package serve

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tlsutil"
)

func tlsDial(addr string) (net.Conn, error) {
	return tls.Dial("tcp", addr, tlsutil.InsecureClientConfig())
}

// echoPacket answers every datagram with "ok:" + the query bytes.
func echoPacket(_ context.Context, out, raw []byte, _ netip.AddrPort) ([]byte, error) {
	out = append(out, "ok:"...)
	return append(out, raw...), nil
}

// echoStream mirrors echoPacket for framed streams.
func echoStream(_ context.Context, out, raw []byte, _ net.Addr) ([]byte, error) {
	out = append(out, "ok:"...)
	return append(out, raw...), nil
}

func udpExchange(t *testing.T, addr, payload string) string {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(payload)); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return string(buf[:n])
}

// frame writes a 2-byte-length-framed payload and reads one framed
// response.
func frameExchange(t *testing.T, conn net.Conn, payload string) string {
	t.Helper()
	msg := append([]byte{byte(len(payload) >> 8), byte(len(payload))}, payload...)
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("frame write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [2]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("frame header: %v", err)
	}
	resp := make([]byte, int(hdr[0])<<8|int(hdr[1]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatalf("frame body: %v", err)
	}
	return string(resp)
}

func TestPacketEngineEcho(t *testing.T) {
	s, err := New("127.0.0.1:0", Options{Packet: PacketHandlerFunc(echoPacket)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("q%d", i)
		if got := udpExchange(t, s.Addr(), q); got != "ok:"+q {
			t.Fatalf("exchange %d: got %q", i, got)
		}
	}
}

func TestPacketEngineMultiListener(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Packet:    PacketHandlerFunc(echoPacket),
		Listeners: 4,
		Registry:  reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	const queries = 64
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("udp", s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			q := fmt.Sprintf("q%d", i)
			if _, err := conn.Write([]byte(q)); err != nil {
				errs <- err
				return
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 128)
			n, err := conn.Read(buf)
			if err != nil {
				errs <- err
				return
			}
			if string(buf[:n]) != "ok:"+q {
				errs <- fmt.Errorf("got %q", buf[:n])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("exchange: %v", err)
	}
	if got := reg.Counter("serve_packets_total").Value(); got < queries {
		t.Fatalf("serve_packets_total = %d, want >= %d", got, queries)
	}
	if got := reg.Counter("serve_responses_total").Value(); got < queries {
		t.Fatalf("serve_responses_total = %d, want >= %d", got, queries)
	}
}

func TestPacketEngineLoopFallback(t *testing.T) {
	s, err := New("127.0.0.1:0", Options{
		Packet:    PacketHandlerFunc(echoPacket),
		BatchSize: 1, // forces the portable one-datagram loop
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if got := udpExchange(t, s.Addr(), "hello"); got != "ok:hello" {
		t.Fatalf("got %q", got)
	}
}

func TestPacketEngineDropsOnNilResponse(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Packet: PacketHandlerFunc(func(_ context.Context, out, raw []byte, _ netip.AddrPort) ([]byte, error) {
			if string(raw) == "drop" {
				return nil, nil
			}
			return append(out, raw...), nil
		}),
		Registry: reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte("drop"))
	conn.Write([]byte("keep"))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(buf[:n]) != "keep" {
		t.Fatalf("got %q, want the dropped packet to vanish", buf[:n])
	}
	if got := reg.Counter("serve_dropped_total").Value(); got != 1 {
		t.Fatalf("serve_dropped_total = %d, want 1", got)
	}
}

func TestPacketEngineDispatchConcurrency(t *testing.T) {
	// 16 queries against a handler that sleeps 20ms each: with 16
	// dispatch workers the whole set completes in roughly one sleep,
	// not sixteen.
	s, err := New("127.0.0.1:0", Options{
		Packet: PacketHandlerFunc(func(ctx context.Context, out, raw []byte, _ netip.AddrPort) ([]byte, error) {
			select {
			case <-time.After(20 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return append(out, raw...), nil
		}),
		Concurrency: 16,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			udpExchange(t, s.Addr(), fmt.Sprintf("q%d", i))
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("16 concurrent 20ms queries took %v; dispatch pool not parallel", elapsed)
	}
}

func TestStreamEngine(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{Stream: StreamHandlerFunc(echoStream), Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Several frames on one connection exercise the per-connection
	// scratch reuse.
	for i := 0; i < 3; i++ {
		q := fmt.Sprintf("q%d", i)
		if got := frameExchange(t, conn, q); got != "ok:"+q {
			t.Fatalf("frame %d: got %q", i, got)
		}
	}
	if got := reg.Counter("serve_stream_queries_total").Value(); got != 3 {
		t.Fatalf("serve_stream_queries_total = %d, want 3", got)
	}
}

func TestStreamEngineTLS(t *testing.T) {
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatalf("tls config: %v", err)
	}
	s, err := New("127.0.0.1:0", Options{Stream: StreamHandlerFunc(echoStream), TLSConfig: cfg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	conn, err := tlsDial(s.Addr())
	if err != nil {
		t.Fatalf("tls dial: %v", err)
	}
	defer conn.Close()
	if got := frameExchange(t, conn, "hello"); got != "ok:hello" {
		t.Fatalf("got %q", got)
	}
}

// TestStreamEngineLargeResponse forces the two-write path (response
// outgrows the handler scratch).
func TestStreamEngineLargeResponse(t *testing.T) {
	big := make([]byte, 40<<10)
	for i := range big {
		big[i] = byte(i)
	}
	s, err := New("127.0.0.1:0", Options{
		Stream: StreamHandlerFunc(func(_ context.Context, out, _ []byte, _ net.Addr) ([]byte, error) {
			return append(out, big...), nil
		}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if got := frameExchange(t, conn, "q"); got != string(big) {
		t.Fatalf("large response mismatch: %d bytes", len(got))
	}
}

func TestStreamHandlerRefusalClosesConn(t *testing.T) {
	s, err := New("127.0.0.1:0", Options{
		Stream: StreamHandlerFunc(func(_ context.Context, _, _ []byte, _ net.Addr) ([]byte, error) {
			return nil, nil
		}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte{0, 1, 'x'})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read after refusal: err = %v, want EOF", err)
	}
}

// TestSamePortPairing verifies that with both handlers set, UDP and
// TCP land on one port (the authoritative-server shape).
func TestSamePortPairing(t *testing.T) {
	s, err := New("127.0.0.1:0", Options{
		Packet: PacketHandlerFunc(echoPacket),
		Stream: StreamHandlerFunc(echoStream),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if got := udpExchange(t, s.Addr(), "u"); got != "ok:u" {
		t.Fatalf("udp: got %q", got)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("tcp dial on paired port: %v", err)
	}
	defer conn.Close()
	if got := frameExchange(t, conn, "t"); got != "ok:t" {
		t.Fatalf("tcp: got %q", got)
	}
}

func TestNewRequiresHandler(t *testing.T) {
	if _, err := New("127.0.0.1:0", Options{}); err == nil {
		t.Fatal("New with no handlers: want error")
	}
}

func TestServeReturnsOnContextCancel(t *testing.T) {
	s, err := New("127.0.0.1:0", Options{Packet: PacketHandlerFunc(echoPacket)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx) }()
	if got := udpExchange(t, s.Addr(), "pre"); got != "ok:pre" {
		t.Fatalf("pre-cancel exchange: %q", got)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
	// The socket is gone: a fresh query gets no answer.
	conn, err := net.Dial("udp", s.Addr())
	if err == nil {
		defer conn.Close()
		conn.Write([]byte("post"))
		conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if _, err := conn.Read(make([]byte, 16)); err == nil {
			t.Fatal("server still answering after Serve returned")
		}
	}
}

// packetFunc adapts a test handler written for the stream path (src a
// net.Addr) to the packet path, so one handler serves both.
func packetFunc(f func(context.Context, []byte, []byte, net.Addr) ([]byte, error)) PacketHandlerFunc {
	return func(ctx context.Context, out, raw []byte, src netip.AddrPort) ([]byte, error) {
		return f(ctx, out, raw, net.UDPAddrFromAddrPort(src))
	}
}
