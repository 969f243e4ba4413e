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

// stop force-stops s without a drain: Shutdown with a context that is
// already done.
func stop(s *Server) error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Shutdown(ctx)
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

// packetModes are the two ways a listener answers datagrams: on the
// reader itself, or through a dispatch pool. Concurrency 1 keeps the
// dispatch answers in arrival order.
var packetModes = []struct {
	name string
	opts Options
}{
	{"inline", Options{}},
	{"dispatch", Options{Concurrency: 1}},
}

// TestPacketEngineEcho writes a window of datagrams back to back from
// one socket, so they queue in the socket buffer while earlier ones are
// answered, and checks every one comes back intact.
func TestPacketEngineEcho(t *testing.T) {
	for _, mode := range packetModes {
		t.Run(mode.name, func(t *testing.T) {
			mode.opts.Packet = PacketHandlerFunc(echoPacket)
			s, err := New("127.0.0.1:0", mode.opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer stop(s)
			conn, err := net.Dial("udp", s.Addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			const window = 20
			for i := 0; i < window; i++ {
				if _, err := conn.Write([]byte(fmt.Sprintf("q%02d", i))); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			seen := make(map[string]bool)
			buf := make([]byte, 64)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			for len(seen) < window {
				n, err := conn.Read(buf)
				if err != nil {
					t.Fatalf("read after %d/%d answers: %v", len(seen), window, err)
				}
				seen[string(buf[:n])] = true
			}
			for i := 0; i < window; i++ {
				if q := fmt.Sprintf("ok:q%02d", i); !seen[q] {
					t.Fatalf("%q never answered", q)
				}
			}
		})
	}
}

// TestPacketEngineMultiListener sends from 64 sockets at once across
// four listener shards; each socket must get its own query's answer.
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
	defer stop(s)
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
	// A response is counted after its write: drain the engine so every
	// reply a client read has been counted.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := reg.Counter("serve_packets_total").Value(); got < queries {
		t.Fatalf("serve_packets_total = %d, want >= %d", got, queries)
	}
	if got := reg.Counter("serve_responses_total").Value(); got < queries {
		t.Fatalf("serve_responses_total = %d, want >= %d", got, queries)
	}
}

// TestPacketEngineDropsOnNilResponse: a handler's nil response and a
// response the socket refuses (one byte over the largest IPv4 UDP
// payload) are both dropped — counted in serve_dropped_total, not in
// serve_responses_total — and the query after them is still answered.
func TestPacketEngineDropsOnNilResponse(t *testing.T) {
	for _, mode := range packetModes {
		t.Run(mode.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			mode.opts.Registry = reg
			mode.opts.Packet = PacketHandlerFunc(func(_ context.Context, out, raw []byte, _ netip.AddrPort) ([]byte, error) {
				switch string(raw) {
				case "drop":
					return nil, nil
				case "oversize":
					return append(out, make([]byte, 65508)...), nil
				}
				return append(out, raw...), nil
			})
			s, err := New("127.0.0.1:0", mode.opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer stop(s)
			conn, err := net.Dial("udp", s.Addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			conn.Write([]byte("drop"))
			conn.Write([]byte("oversize"))
			conn.Write([]byte("keep"))
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 64)
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if string(buf[:n]) != "keep" {
				t.Fatalf("got %q, want the dropped packets to vanish", buf[:n])
			}
			// The answer can arrive a moment before it is counted; stop
			// returns once the serving goroutines have.
			stop(s)
			dropped, responses := reg.Counter("serve_dropped_total").Value(), reg.Counter("serve_responses_total").Value()
			if dropped != 2 || responses != 1 {
				t.Fatalf("serve_dropped_total = %d, serve_responses_total = %d, want 2 and 1", dropped, responses)
			}
		})
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
	defer stop(s)
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
	defer stop(s)
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
	defer stop(s)
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
	defer stop(s)
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
	defer stop(s)
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
	defer stop(s)
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

// TestShutdownClosesTheSocket: a server answers until Shutdown, which
// returns nil after a clean drain and leaves no socket behind.
func TestShutdownClosesTheSocket(t *testing.T) {
	s, err := New("127.0.0.1:0", Options{Packet: PacketHandlerFunc(echoPacket)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := udpExchange(t, s.Addr(), "pre"); got != "ok:pre" {
		t.Fatalf("pre-shutdown exchange: %q", got)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The socket is gone: a fresh query gets no answer.
	conn, err := net.Dial("udp", s.Addr())
	if err == nil {
		defer conn.Close()
		conn.Write([]byte("post"))
		conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if _, err := conn.Read(make([]byte, 16)); err == nil {
			t.Fatal("server still answering after Shutdown returned")
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

// TestReusePort binds two UDP sockets to one port where the platform
// allows it, and checks the advertised capability matches reality.
func TestReusePort(t *testing.T) {
	if !ReusePortAvailable {
		if _, err := ListenUDPReusePort("127.0.0.1:0"); err == nil {
			t.Fatal("ListenUDPReusePort succeeded with ReusePortAvailable=false")
		}
		t.Skip("SO_REUSEPORT unavailable on this platform")
	}
	first, err := ListenUDPReusePort("127.0.0.1:0")
	if err != nil {
		t.Fatalf("first bind: %v", err)
	}
	defer first.Close()
	second, err := ListenUDPReusePort(first.LocalAddr().String())
	if err != nil {
		t.Fatalf("second bind on %s: %v", first.LocalAddr(), err)
	}
	second.Close()
}
