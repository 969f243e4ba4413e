package serve

import (
	"net"
	"testing"
	"time"
)

// benchEngine starts an echo engine and returns it with a cleanup.
func benchEngine(b *testing.B, opts Options) *Server {
	b.Helper()
	opts.Packet = PacketHandlerFunc(echoPacket)
	s, err := New("127.0.0.1:0", opts)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.Cleanup(func() { stop(s) })
	return s
}

func benchExchange(b *testing.B, addr string) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	buf := make([]byte, 256)
	q := []byte("bench-query")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(q); err != nil {
			b.Fatalf("write: %v", err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			b.Fatalf("read: %v", err)
		}
	}
}

// BenchmarkServeUDPInline is the engine's single-listener inline fast
// path (the -benchtime=1x tier-1 smoke runs this and its siblings).
func BenchmarkServeUDPInline(b *testing.B) {
	benchExchange(b, benchEngine(b, Options{}).Addr())
}

// BenchmarkServeUDPDispatch measures the dispatch (worker-pool) path
// blocking handlers take.
func BenchmarkServeUDPDispatch(b *testing.B) {
	benchExchange(b, benchEngine(b, Options{Concurrency: 4}).Addr())
}

// BenchmarkServeStream measures the framed TCP path on a persistent
// connection.
func BenchmarkServeStream(b *testing.B) {
	s, err := New("127.0.0.1:0", Options{Stream: StreamHandlerFunc(echoStream)})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.Cleanup(func() { stop(s) })
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	frame := append([]byte{0, 11}, "bench-query"...)
	buf := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(frame); err != nil {
			b.Fatalf("write: %v", err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var hdr [2]byte
		if _, err := readFull(conn, hdr[:]); err != nil {
			b.Fatalf("frame header: %v", err)
		}
		n := int(hdr[0])<<8 | int(hdr[1])
		if _, err := readFull(conn, buf[:n]); err != nil {
			b.Fatalf("frame body: %v", err)
		}
	}
}
