package serve

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"
)

// blockingHandler parks every query until released (or until its
// context dies), so tests can hold a query in flight across Shutdown.
type blockingHandler struct {
	entered chan struct{} // one send per query that reached the handler
	release chan struct{} // close to let parked queries finish
}

func newBlockingHandler() *blockingHandler {
	return &blockingHandler{
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
}

func (h *blockingHandler) serve(ctx context.Context, out, raw []byte, _ net.Addr) ([]byte, error) {
	h.entered <- struct{}{}
	select {
	case <-h.release:
		return append(out, raw...), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestShutdownDrainsInflightUDP pins the graceful-drain contract: a
// query that reached the handler before Shutdown still gets its
// response, and Shutdown does not return until it has.
func TestShutdownDrainsInflightUDP(t *testing.T) {
	h := newBlockingHandler()
	s, err := New("127.0.0.1:0", Options{Packet: packetFunc(h.serve)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("inflight")); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached handler")
	}

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned before in-flight query finished: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(h.release)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("in-flight response lost during Shutdown: %v", err)
	}
	if string(buf[:n]) != "inflight" {
		t.Fatalf("got %q", buf[:n])
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after drain")
	}
}

// TestShutdownDrainsInflightUDPDispatch repeats the drain contract in
// dispatch mode, where queued work must also complete.
func TestShutdownDrainsInflightUDPDispatch(t *testing.T) {
	h := newBlockingHandler()
	s, err := New("127.0.0.1:0", Options{
		Packet:      packetFunc(h.serve),
		Concurrency: 4,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte("inflight"))
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached handler")
	}
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	close(h.release)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if n, err := conn.Read(buf); err != nil || string(buf[:n]) != "inflight" {
		t.Fatalf("in-flight dispatch response: %q, %v", buf[:n], err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownDrainsInflightTCP: the frame being served when Shutdown
// starts completes (response written), then the connection closes.
func TestShutdownDrainsInflightTCP(t *testing.T) {
	h := newBlockingHandler()
	s, err := New("127.0.0.1:0", Options{Stream: StreamHandlerFunc(h.serve)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 8, 'i', 'n', 'f', 'l', 'i', 'g', 'h', 't'}); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached handler")
	}
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	close(h.release)
	if got := mustReadFrame(t, conn); got != "inflight" {
		t.Fatalf("got %q", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// After the drain the connection is closed: the next read fails.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after Shutdown")
	}
}

// TestShutdownIdleTCPConnClosed: an idle connection (blocked between
// frames) does not stall Shutdown.
func TestShutdownIdleTCPConnClosed(t *testing.T) {
	s, err := New("127.0.0.1:0", Options{Stream: StreamHandlerFunc(echoStream)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if got := frameExchange(t, conn, "warm"); got != "ok:warm" {
		t.Fatalf("warm exchange: %q", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with idle conn: %v", err)
	}
}

// TestShutdownDeadlineExceeded pins the forced path: a handler that
// never finishes on its own is cancelled via its context, Shutdown
// returns the deadline error, and everything still unwinds.
func TestShutdownDeadlineExceeded(t *testing.T) {
	entered := make(chan struct{})
	cancelled := make(chan struct{})
	s, err := New("127.0.0.1:0", Options{
		Packet: PacketHandlerFunc(func(ctx context.Context, _, _ []byte, _ netip.AddrPort) ([]byte, error) {
			close(entered)
			<-ctx.Done()
			close(cancelled)
			return nil, ctx.Err()
		}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte("stuck"))
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached handler")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("forced Shutdown took %v", elapsed)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("stuck handler never saw its context cancelled")
	}
}

// TestShutdownIdempotent: a second Shutdown (and a Close after it) is
// a cheap no-op.
func TestShutdownIdempotent(t *testing.T) {
	s, err := New("127.0.0.1:0", Options{Packet: PacketHandlerFunc(echoPacket)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after Shutdown: %v", err)
	}
}

func mustReadFrame(t *testing.T, conn net.Conn) string {
	t.Helper()
	got, err := readFrame(conn)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return got
}

func readFrame(conn net.Conn) (string, error) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [2]byte
	if _, err := readFull(conn, hdr[:]); err != nil {
		return "", err
	}
	buf := make([]byte, int(hdr[0])<<8|int(hdr[1]))
	if _, err := readFull(conn, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func readFull(conn net.Conn, buf []byte) (int, error) {
	read := 0
	for read < len(buf) {
		n, err := conn.Read(buf[read:])
		read += n
		if err != nil {
			return read, err
		}
	}
	return read, nil
}
