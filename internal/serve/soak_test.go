package serve

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestServeSoak is the sustained-load gate: closed-loop UDP and TCP
// clients hammer one engine (sharded listeners, batched reads, a
// dispatch pool) for a while, then a graceful Shutdown runs under
// load. It must be race-clean (tier-1 runs it with -race) and the
// engine's accounting must balance exactly: every datagram read was
// either answered or deliberately dropped, and every client query got
// its response.
func TestServeSoak(t *testing.T) {
	duration := 3 * time.Second
	if testing.Short() {
		duration = 700 * time.Millisecond
	}
	reg := obs.NewRegistry()
	var handled atomic.Int64
	s, err := New("127.0.0.1:0", Options{
		Packet: PacketHandlerFunc(func(_ context.Context, out, raw []byte, _ netip.AddrPort) ([]byte, error) {
			handled.Add(1)
			return append(out, raw...), nil
		}),
		Stream: StreamHandlerFunc(func(_ context.Context, out, raw []byte, _ net.Addr) ([]byte, error) {
			handled.Add(1)
			return append(out, raw...), nil
		}),
		Listeners:   2,
		Concurrency: 4,
		Registry:    reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	stop := make(chan struct{})
	var clientQueries atomic.Int64
	var wg sync.WaitGroup

	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("udp", s.Addr())
			if err != nil {
				t.Errorf("udp dial: %v", err)
				return
			}
			defer conn.Close()
			buf := make([]byte, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := fmt.Sprintf("u%d-%d", c, i)
				if _, err := conn.Write([]byte(q)); err != nil {
					t.Errorf("udp write: %v", err)
					return
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, err := conn.Read(buf)
				if err != nil {
					t.Errorf("udp read: %v", err)
					return
				}
				if string(buf[:n]) != q {
					t.Errorf("udp echo mismatch: sent %q got %q", q, buf[:n])
					return
				}
				clientQueries.Add(1)
			}
		}(c)
	}

	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Errorf("tcp dial: %v", err)
				return
			}
			defer conn.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := fmt.Sprintf("t%d-%d", c, i)
				frame := append([]byte{byte(len(q) >> 8), byte(len(q))}, q...)
				if _, err := conn.Write(frame); err != nil {
					t.Errorf("tcp write: %v", err)
					return
				}
				got, err := readFrame(conn)
				if err != nil {
					t.Errorf("tcp read: %v", err)
					return
				}
				if got != q {
					t.Errorf("tcp echo mismatch: sent %q got %q", q, got)
					return
				}
				clientQueries.Add(1)
			}
		}(c)
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under load: %v", err)
	}

	packets := reg.Counter("serve_packets_total").Value()
	responses := reg.Counter("serve_responses_total").Value()
	dropped := reg.Counter("serve_dropped_total").Value()
	streamQs := reg.Counter("serve_stream_queries_total").Value()
	total := clientQueries.Load()
	if total == 0 {
		t.Fatal("soak produced no completed queries")
	}
	// Exact balance: the engine never loses a datagram it read.
	if packets != responses+dropped {
		t.Fatalf("accounting imbalance: packets=%d responses=%d dropped=%d",
			packets, responses, dropped)
	}
	if dropped != 0 {
		t.Fatalf("echo soak dropped %d packets", dropped)
	}
	// Every handled query came from a client that got its echo back
	// (closed loop), so the handler count can lag the client count by
	// at most nothing: both sides agree.
	if handled.Load() != responses+streamQs {
		t.Fatalf("handler ran %d times, engine counted %d datagram + %d stream queries",
			handled.Load(), responses, streamQs)
	}
	t.Logf("soak: %d queries (%d udp datagrams, %d stream frames) in %v",
		total, packets, streamQs, duration)
}
