package serve

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// dnsShaped builds a minimal DNS-shaped query: a 12-byte header with
// the given ID and RD set, followed by tag. The protection paths can
// synthesize SERVFAIL/TC answers from it.
func dnsShaped(id uint16, tag string) []byte {
	q := make([]byte, headerLen, headerLen+len(tag))
	q[0], q[1] = byte(id>>8), byte(id)
	q[2] = flagRD
	return append(q, tag...)
}

// isServFail reports whether resp is the engine's shed answer for q:
// the query echoed with QR set and RCODE=SERVFAIL.
func isServFail(q, resp []byte) bool {
	return len(resp) == len(q) &&
		resp[0] == q[0] && resp[1] == q[1] &&
		resp[2]&flagQR != 0 && resp[2]&flagTC == 0 &&
		resp[3]&0x0f == rcodeServ &&
		bytes.Equal(resp[headerLen:], q[headerLen:])
}

// isTC reports whether resp is the RRL slip answer for q: the query
// echoed with QR|TC set and RCODE=NOERROR.
func isTC(q, resp []byte) bool {
	return len(resp) == len(q) &&
		resp[0] == q[0] && resp[1] == q[1] &&
		resp[2]&flagQR != 0 && resp[2]&flagTC != 0 &&
		resp[3]&0x0f == 0
}

// TestAdmissionShedServfailUDP pins the UDP load-shedding contract:
// with the in-flight budget exhausted, a new query is answered
// SERVFAIL from its own bytes without reaching the handler, the shed
// is counted, and the in-flight gauge reports the budget in use.
func TestAdmissionShedServfailUDP(t *testing.T) {
	h := newBlockingHandler()
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Packet:      packetFunc(h.serve),
		Concurrency: 2,
		Registry:    reg,
		Protection:  Protection{MaxInflight: 1},
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
	q1 := dnsShaped(1, "park")
	if _, err := conn.Write(q1); err != nil {
		t.Fatalf("write q1: %v", err)
	}
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("q1 never reached handler")
	}
	if got := reg.Gauge("serve_inflight").Value(); got != 1 {
		t.Fatalf("serve_inflight = %v with one admitted query, want 1", got)
	}

	q2 := dnsShaped(2, "shed")
	if _, err := conn.Write(q2); err != nil {
		t.Fatalf("write q2: %v", err)
	}
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("read shed answer: %v", err)
	}
	if !isServFail(q2, buf[:n]) {
		t.Fatalf("over-budget query answered %x, want SERVFAIL echo of %x", buf[:n], q2)
	}
	if got := reg.Counter("serve_shed_total").Value(); got != 1 {
		t.Fatalf("serve_shed_total = %d, want 1", got)
	}

	close(h.release)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err = conn.Read(buf)
	if err != nil {
		t.Fatalf("read q1 answer after release: %v", err)
	}
	if !bytes.Equal(buf[:n], q1) {
		t.Fatalf("parked query answered %x, want echo of %x", buf[:n], q1)
	}
	// dispatchWorker holds the slot until it is done with the query, the
	// write included, so the answer can arrive a moment before the gauge
	// falls (the inline loop releases before it writes): wait for it.
	for deadline := time.Now().Add(5 * time.Second); reg.Gauge("serve_inflight").Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("serve_inflight = %v after drain, want 0", reg.Gauge("serve_inflight").Value())
		}
	}
}

// TestAdmissionShedStream pins the stream flavor: an over-budget frame
// gets a framed SERVFAIL and the connection survives to be served once
// the budget frees up.
func TestAdmissionShedStream(t *testing.T) {
	h := newBlockingHandler()
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Stream:     StreamHandlerFunc(h.serve),
		Registry:   reg,
		Protection: Protection{MaxInflight: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	conn1, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial conn1: %v", err)
	}
	defer conn1.Close()
	q1 := dnsShaped(1, "park")
	frame1 := append([]byte{0, byte(len(q1))}, q1...)
	if _, err := conn1.Write(frame1); err != nil {
		t.Fatalf("write frame1: %v", err)
	}
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("frame1 never reached handler")
	}

	conn2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial conn2: %v", err)
	}
	defer conn2.Close()
	q2 := dnsShaped(2, "shed")
	if _, err := conn2.Write(append([]byte{0, byte(len(q2))}, q2...)); err != nil {
		t.Fatalf("write frame2: %v", err)
	}
	got, err := readFrame(conn2)
	if err != nil {
		t.Fatalf("read shed frame: %v", err)
	}
	if !isServFail(q2, []byte(got)) {
		t.Fatalf("over-budget frame answered %x, want SERVFAIL echo", got)
	}
	if reg.Counter("serve_shed_total").Value() != 1 {
		t.Fatalf("serve_shed_total = %d, want 1", reg.Counter("serve_shed_total").Value())
	}

	// The shed connection was not punished: once the budget frees, the
	// same connection serves normally.
	close(h.release)
	if got, err := readFrame(conn1); err != nil || !bytes.Equal([]byte(got), q1) {
		t.Fatalf("parked frame: got %x err %v, want echo of %x", got, err, q1)
	}
	q3 := dnsShaped(3, "ok")
	if _, err := conn2.Write(append([]byte{0, byte(len(q3))}, q3...)); err != nil {
		t.Fatalf("write frame3: %v", err)
	}
	if got, err := readFrame(conn2); err != nil || !bytes.Equal([]byte(got), q3) {
		t.Fatalf("post-shed frame: got %x err %v, want echo of %x", got, err, q3)
	}
}

// TestRRLLimiterBuckets pins the token bucket itself on a fake clock:
// the burst is granted at once, a host elsewhere in the /24 shares the
// bucket (rotating through a prefix dodges nothing), another prefix has
// its own, and tokens come back at the sustained rate, never beyond the
// burst.
func TestRRLLimiterBuckets(t *testing.T) {
	now := time.Unix(0, 0)
	l := newRRLLimiter(2, 4, -1)
	l.now = func() time.Time { return now }
	src := netip.MustParseAddr("203.0.113.7")
	for i := 0; i < 4; i++ {
		if v := l.verdict(src); v != rrlSend {
			t.Fatalf("query %d inside the burst: verdict %d", i, v)
		}
	}
	if v := l.verdict(src); v != rrlDrop {
		t.Fatalf("query beyond the burst: verdict %d, want drop (slip is off)", v)
	}
	if v := l.verdict(netip.MustParseAddr("203.0.113.99")); v != rrlDrop {
		t.Fatalf("sibling host in the same /24: verdict %d, want drop", v)
	}
	if v := l.verdict(netip.MustParseAddr("::ffff:203.0.113.50")); v != rrlDrop {
		t.Fatalf("the /24 as a v4-mapped address: verdict %d, want drop", v)
	}
	if v := l.verdict(netip.MustParseAddr("198.51.100.1")); v != rrlSend {
		t.Fatalf("unrelated prefix: verdict %d, want send", v)
	}
	// One second restores two tokens.
	now = now.Add(time.Second)
	if a, b := l.verdict(src), l.verdict(src); a != rrlSend || b != rrlSend {
		t.Fatalf("refilled tokens not granted: verdicts %d, %d", a, b)
	}
	if v := l.verdict(src); v != rrlDrop {
		t.Fatalf("third query after a two-token refill: verdict %d", v)
	}
	// An hour refills to the burst and no further.
	now = now.Add(time.Hour)
	for i := 0; i < 4; i++ {
		if v := l.verdict(src); v != rrlSend {
			t.Fatalf("query %d after a long idle: verdict %d", i, v)
		}
	}
	if v := l.verdict(src); v != rrlDrop {
		t.Fatalf("idle time banked more than the burst: verdict %d", v)
	}
}

// TestRateLimitSlipUDP pins RRL semantics with a one-token bucket and
// a negligible refill rate: the first query is served, then over-limit
// queries alternate drop, TC=1 slip, drop, slip (DefaultRateSlip-style
// cadence with slip=2), with exact counter accounting.
func TestRateLimitSlipUDP(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Packet:     PacketHandlerFunc(echoPacket),
		Registry:   reg,
		Protection: Protection{RateLimit: 0.001, RateBurst: 1, RateSlip: 2},
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
	var qs [][]byte
	for i := 0; i < 5; i++ {
		q := dnsShaped(uint16(i), "rrl")
		qs = append(qs, q)
		if _, err := conn.Write(q); err != nil {
			t.Fatalf("write q%d: %v", i, err)
		}
	}
	var got [][]byte
	buf := make([]byte, 256)
	for {
		conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		n, err := conn.Read(buf)
		if err != nil {
			break
		}
		got = append(got, append([]byte(nil), buf[:n]...))
	}
	// q0 served, q1 dropped, q2 slipped TC, q3 dropped, q4 slipped TC.
	if len(got) != 3 {
		t.Fatalf("got %d responses, want 3 (echo + 2 TC slips)", len(got))
	}
	if want := append([]byte("ok:"), qs[0]...); !bytes.Equal(got[0], want) {
		t.Fatalf("first response %x, want echo %x", got[0], want)
	}
	if !isTC(qs[2], got[1]) || !isTC(qs[4], got[2]) {
		t.Fatalf("slip responses %x / %x are not TC echoes of q2/q4", got[1], got[2])
	}
	if d := reg.Counter("serve_ratelimit_dropped_total").Value(); d != 2 {
		t.Fatalf("serve_ratelimit_dropped_total = %d, want 2", d)
	}
	if sl := reg.Counter("serve_ratelimit_slipped_total").Value(); sl != 2 {
		t.Fatalf("serve_ratelimit_slipped_total = %d, want 2", sl)
	}
}

// TestRateLimitStreamExempt: a completed TCP handshake proves the
// source address, so stream queries are never rate limited.
func TestRateLimitStreamExempt(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Stream:     StreamHandlerFunc(echoStream),
		Registry:   reg,
		Protection: Protection{RateLimit: 0.001, RateBurst: 1},
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
	for i := 0; i < 5; i++ {
		if got := frameExchange(t, conn, "q"); got != "ok:q" {
			t.Fatalf("stream exchange %d rate limited: got %q", i, got)
		}
	}
	if d := reg.Counter("serve_ratelimit_dropped_total").Value(); d != 0 {
		t.Fatalf("stream queries hit the rate limiter: dropped=%d", d)
	}
}

// panicOn returns a handler that panics on queries carrying tag and
// echoes everything else.
func panicOn(tag string, calls *atomic.Int64) func(context.Context, []byte, []byte, net.Addr) ([]byte, error) {
	return func(_ context.Context, out, raw []byte, _ net.Addr) ([]byte, error) {
		if calls != nil {
			calls.Add(1)
		}
		if bytes.Contains(raw, []byte(tag)) {
			panic("handler bug: " + tag)
		}
		return append(out, raw...), nil
	}
}

// TestPanicRecoveryPacket: a panicking packet handler yields SERVFAIL
// plus serve_panic_total instead of killing the process, and the next
// query is served normally.
func TestPanicRecoveryPacket(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Packet:   packetFunc(panicOn("boom", nil)),
		Registry: reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	bad := dnsShaped(7, "boom")
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(bad); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("read after panic: %v", err)
	}
	if !isServFail(bad, buf[:n]) {
		t.Fatalf("panic answered %x, want SERVFAIL echo", buf[:n])
	}
	if p := reg.Counter("serve_panic_total").Value(); p != 1 {
		t.Fatalf("serve_panic_total = %d, want 1", p)
	}
	good := dnsShaped(8, "fine")
	if got := udpExchange(t, s.Addr(), string(good)); got != string(good) {
		t.Fatalf("server unhealthy after panic: got %x", got)
	}
}

// TestPanicRecoveryStream mirrors the packet flavor over TCP: the
// frame is answered SERVFAIL and the connection keeps serving.
func TestPanicRecoveryStream(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Stream:   StreamHandlerFunc(panicOn("boom", nil)),
		Registry: reg,
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
	bad := dnsShaped(9, "boom")
	if _, err := conn.Write(append([]byte{0, byte(len(bad))}, bad...)); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readFrame(conn)
	if err != nil {
		t.Fatalf("read after panic: %v", err)
	}
	if !isServFail(bad, []byte(got)) {
		t.Fatalf("panic answered %x, want SERVFAIL echo", got)
	}
	if p := reg.Counter("serve_panic_total").Value(); p != 1 {
		t.Fatalf("serve_panic_total = %d, want 1", p)
	}
	good := dnsShaped(10, "fine")
	if _, err := conn.Write(append([]byte{0, byte(len(good))}, good...)); err != nil {
		t.Fatalf("write good: %v", err)
	}
	if got, err := readFrame(conn); err != nil || !bytes.Equal([]byte(got), good) {
		t.Fatalf("connection unhealthy after panic: got %x err %v", got, err)
	}
}

// TestMaxConnsRejectsOverCap: with the connection cap reached, new
// connections are closed immediately and counted, and the established
// connection keeps working.
func TestMaxConnsRejectsOverCap(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Stream:     StreamHandlerFunc(echoStream),
		Registry:   reg,
		Protection: Protection{MaxConns: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	conn1, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial conn1: %v", err)
	}
	defer conn1.Close()
	if got := frameExchange(t, conn1, "a"); got != "ok:a" {
		t.Fatalf("conn1 exchange: got %q", got)
	}

	conn2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial conn2: %v", err)
	}
	defer conn2.Close()
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn2.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("over-cap connection read: %v, want EOF", err)
	}
	if rj := reg.Counter("serve_conns_rejected_total").Value(); rj != 1 {
		t.Fatalf("serve_conns_rejected_total = %d, want 1", rj)
	}
	if got := frameExchange(t, conn1, "b"); got != "ok:b" {
		t.Fatalf("conn1 broken after rejection: got %q", got)
	}

	// The slot frees when conn1 closes; a later connection is admitted.
	conn1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn3, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatalf("dial conn3: %v", err)
		}
		conn3.SetReadDeadline(time.Now().Add(time.Second))
		msg := append([]byte{0, 1}, 'c')
		if _, err := conn3.Write(msg); err == nil {
			if got, err := readFrame(conn3); /* admitted */ err == nil && got == "ok:c" {
				conn3.Close()
				return
			}
		}
		conn3.Close()
		if time.Now().After(deadline) {
			t.Fatal("connection slot never freed after conn1 close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamWriteTimeoutUnblocksSlowReader is the regression test for
// the unbounded-write hole: a client that sends queries but never
// reads responses used to pin its connection goroutine in conn.Write
// forever once the kernel buffers filled, which also wedged graceful
// shutdown. With StreamWriteTimeout set, the stuck write errors out,
// the connection dies, and Shutdown drains promptly.
func TestStreamWriteTimeoutUnblocksSlowReader(t *testing.T) {
	big := make([]byte, 32<<10)
	s, err := New("127.0.0.1:0", Options{
		Stream: StreamHandlerFunc(func(_ context.Context, out, _ []byte, _ net.Addr) ([]byte, error) {
			return append(out, big...), nil
		}),
		Protection: Protection{StreamWriteTimeout: 200 * time.Millisecond},
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
	// Keep the client's receive window tiny so the server's writes jam
	// quickly, and never read: the classic slow-reader client.
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	frame := []byte{0, 1, 'q'}
	var queries []byte
	for i := 0; i < 512; i++ {
		queries = append(queries, frame...)
	}
	if _, err := conn.Write(queries); err != nil {
		t.Fatalf("write queries: %v", err)
	}
	time.Sleep(400 * time.Millisecond) // let the server jam in a response write

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with slow-reader client: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Shutdown took %v, write deadline did not unstick the writer", d)
	}
}

// TestStreamMaxFrameBytesClosesConn: announcing a frame larger than
// MaxFrameBytes closes the connection before any of the body is
// buffered, and the handler never runs.
func TestStreamMaxFrameBytesClosesConn(t *testing.T) {
	var calls atomic.Int64
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Stream: StreamHandlerFunc(func(_ context.Context, out, raw []byte, _ net.Addr) ([]byte, error) {
			calls.Add(1)
			return append(out, raw...), nil
		}),
		Registry:   reg,
		Protection: Protection{MaxFrameBytes: 512},
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
	if _, err := conn.Write([]byte{0x04, 0x00}); err != nil { // announces 1024
		t.Fatalf("write oversize header: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("oversize frame read: %v, want EOF (connection closed)", err)
	}
	if ov := reg.Counter("serve_frame_oversize_total").Value(); ov != 1 {
		t.Fatalf("serve_frame_oversize_total = %d, want 1", ov)
	}
	if calls.Load() != 0 {
		t.Fatalf("handler ran %d times for an oversize frame", calls.Load())
	}

	// A frame at exactly the cap is fine on a fresh connection.
	conn2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial conn2: %v", err)
	}
	defer conn2.Close()
	payload := string(make([]byte, 512))
	if got := frameExchange(t, conn2, payload); got != payload {
		t.Fatalf("at-cap frame rejected: got %d bytes", len(got))
	}
}

// TestStreamReadTimeoutClosesSlowloris: a client that announces a
// frame and then sends one byte of its body is cut off once
// StreamReadTimeout runs out, long before the idle timeout would; the
// half-read frame counts nowhere in the engine's accounting, and a
// client that sends whole frames — pausing longer than the read
// timeout between them — is served throughout.
func TestStreamReadTimeoutClosesSlowloris(t *testing.T) {
	const readTimeout = 200 * time.Millisecond
	var calls atomic.Int64
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Stream: StreamHandlerFunc(func(_ context.Context, out, raw []byte, _ net.Addr) ([]byte, error) {
			calls.Add(1)
			return append(out, raw...), nil
		}),
		Registry:   reg,
		Protection: Protection{StreamReadTimeout: readTimeout},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	slow, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer slow.Close()
	good, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer good.Close()

	start := time.Now()
	if _, err := slow.Write([]byte{0, 12, 'x'}); err != nil { // announces 12, sends 1
		t.Fatalf("write partial frame: %v", err)
	}
	closed := make(chan error, 1)
	go func() {
		slow.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := slow.Read(make([]byte, 1))
		closed <- err
	}()

	// The whole-frame client, before, across and after the slow
	// client's cut-off.
	for i := 0; i < 2; i++ {
		if got := frameExchange(t, good, "whole"); got != "whole" {
			t.Fatalf("frame %d: got %q", i, got)
		}
		time.Sleep(2 * readTimeout)
	}

	select {
	case err := <-closed:
		if err != io.EOF {
			t.Fatalf("slow client read: %v, want EOF (connection closed)", err)
		}
		if d := time.Since(start); d < readTimeout {
			t.Fatalf("slow client cut off after %v, before the %v read timeout", d, readTimeout)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow client's connection never closed")
	}
	if got := frameExchange(t, good, "after"); got != "after" {
		t.Fatalf("frame after the cut-off: got %q", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Exact accounting: the three whole frames were read, handled and
	// answered; the half-read frame is no query at all.
	streams := reg.Counter("serve_streams_total").Value()
	streamQs := reg.Counter("serve_stream_queries_total").Value()
	dropped := reg.Counter("serve_dropped_total").Value()
	shed := reg.Counter("serve_shed_total").Value()
	if streams != 2 || streamQs != 3 || calls.Load() != streamQs-dropped-shed || dropped != 0 || shed != 0 {
		t.Fatalf("streams=%d stream_queries=%d handled=%d dropped=%d shed=%d, want 2, 3, 3, 0, 0",
			streams, streamQs, calls.Load(), dropped, shed)
	}
}

// TestPipelinedConnServesConcurrently: with MaxConnInflight > 1,
// multiple frames on one connection are served concurrently (RFC 7766
// §6.2.1.1), so eight 150 ms queries finish far sooner than their
// 1.2 s sequential sum.
func TestPipelinedConnServesConcurrently(t *testing.T) {
	s, err := New("127.0.0.1:0", Options{
		Stream: StreamHandlerFunc(func(_ context.Context, out, raw []byte, _ net.Addr) ([]byte, error) {
			time.Sleep(150 * time.Millisecond)
			return append(out, raw...), nil
		}),
		Protection: Protection{MaxConnInflight: 8},
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
	const frames = 8
	var batch []byte
	want := map[string]bool{}
	for i := 0; i < frames; i++ {
		q := string(dnsShaped(uint16(i), "pipeline"))
		want[q] = true
		batch = append(batch, 0, byte(len(q)))
		batch = append(batch, q...)
	}
	start := time.Now()
	if _, err := conn.Write(batch); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	for i := 0; i < frames; i++ {
		got, err := readFrame(conn)
		if err != nil {
			t.Fatalf("read response %d: %v", i, err)
		}
		if !want[got] {
			t.Fatalf("unexpected or duplicate response %x", got)
		}
		delete(want, got)
	}
	if d := time.Since(start); d > 700*time.Millisecond {
		t.Fatalf("8 pipelined 150ms queries took %v, frames are being serialized", d)
	}
}

// TestShutdownShedAccounting pins the satellite contract: queries shed
// while a Shutdown drain is in progress are still counted, and the
// engine's balance — packets read = answered + dropped + shed — holds
// exactly through the drain.
func TestShutdownShedAccounting(t *testing.T) {
	h := newBlockingHandler()
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Packet:      packetFunc(h.serve),
		Concurrency: 2,
		Registry:    reg,
		Protection:  Protection{MaxInflight: 2},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Fill the budget with two parked queries...
	for i := 0; i < 2; i++ {
		if _, err := conn.Write(dnsShaped(uint16(i), "park")); err != nil {
			t.Fatalf("write parked q%d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case <-h.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("parked query never reached handler")
		}
	}
	// ...then shed a burst over it.
	const extra = 8
	for i := 0; i < extra; i++ {
		q := dnsShaped(uint16(100+i), "shed")
		if _, err := conn.Write(q); err != nil {
			t.Fatalf("write shed q%d: %v", i, err)
		}
		buf := make([]byte, 256)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read shed answer %d: %v", i, err)
		}
		if !isServFail(q, buf[:n]) {
			t.Fatalf("shed answer %d = %x, want SERVFAIL echo", i, buf[:n])
		}
	}

	// Shutdown while the budget is still full, then release: the two
	// parked queries must drain with their answers.
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	time.Sleep(50 * time.Millisecond)
	close(h.release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned")
	}

	packets := reg.Counter("serve_packets_total").Value()
	responses := reg.Counter("serve_responses_total").Value()
	dropped := reg.Counter("serve_dropped_total").Value()
	shed := reg.Counter("serve_shed_total").Value()
	if packets != responses+dropped+shed {
		t.Fatalf("accounting imbalance through shutdown: packets=%d responses=%d dropped=%d shed=%d",
			packets, responses, dropped, shed)
	}
	if responses != 2 {
		t.Fatalf("parked queries answered %d times, want 2", responses)
	}
	if shed < extra {
		t.Fatalf("shed=%d, want at least %d", shed, extra)
	}
}
