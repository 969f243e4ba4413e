package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deadline"
)

// checkUnarmed is what a non-blocking handler can say about the context
// a QueryTimeout gave it: it carries the deadline and has built nothing.
func checkUnarmed(ctx context.Context, timeout time.Duration) string {
	lazy, ok := ctx.(*deadline.Lazy)
	switch d, has := ctx.Deadline(); {
	case !ok:
		return "query context is not the engine's lazy deadline"
	case !has || time.Until(d) > timeout || time.Until(d) < timeout-5*time.Second:
		return "query context does not carry the QueryTimeout deadline"
	case ctx.Err() != nil:
		return "query context dead on arrival: " + ctx.Err().Error()
	case lazy.Armed():
		return "query context armed a timer before the handler asked for Done"
	}
	return ""
}

// TestQueryTimeoutAllocationFree is the gate on what a QueryTimeout
// costs a handler that does not block: nothing. One exchange over
// loopback with preallocated client buffers, the engine serving in this
// process, so AllocsPerRun sees every allocation of the whole packet or
// stream path — context, timer, source address, batch I/O. It used to
// read 6 on the dispatch path for the timer context alone.
func TestQueryTimeoutAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const timeout = 10 * time.Second
	var complaint string // written by the one serving goroutine, read between exchanges
	packet := PacketHandlerFunc(func(ctx context.Context, out, raw []byte, src netip.AddrPort) ([]byte, error) {
		if msg := checkUnarmed(ctx, timeout); msg != "" {
			complaint = msg
		}
		if !src.IsValid() {
			complaint = "no source address"
		}
		return append(out, raw...), nil
	})
	stream := StreamHandlerFunc(func(ctx context.Context, out, raw []byte, _ net.Addr) ([]byte, error) {
		if msg := checkUnarmed(ctx, timeout); msg != "" {
			complaint = msg
		}
		return append(out, raw...), nil
	})
	for _, tc := range []struct {
		name string
		opts Options
		tcp  bool
	}{
		{"packet inline", Options{Packet: packet}, false},
		{"packet dispatch", Options{Packet: packet, Concurrency: 2}, false},
		{"packet loop fallback", Options{Packet: packet, BatchSize: 1}, false},
		{"stream", Options{Stream: stream}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			complaint = ""
			tc.opts.QueryTimeout = timeout
			s, err := New("127.0.0.1:0", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			network := "udp"
			query := []byte("0123456789abcdef")
			if tc.tcp {
				network = "tcp"
				query = append([]byte{0, 16}, query...)
			}
			conn, err := net.Dial(network, s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			reply := make([]byte, 64)
			exchange := func() {
				if _, err := conn.Write(query); err != nil {
					t.Fatal(err)
				}
				if tc.tcp {
					_, err = io.ReadFull(conn, reply[:len(query)])
				} else {
					_, err = conn.Read(reply)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			exchange() // warm the pools
			n := testing.AllocsPerRun(300, exchange)
			if complaint != "" {
				t.Fatal(complaint)
			}
			if n != 0 {
				t.Errorf("%.1f allocs per exchange with QueryTimeout set, want 0", n)
			}
		})
	}
}

// TestQueryTimeoutFires: the lazy deadline is still a deadline. A
// handler parked on Done is woken when QueryTimeout passes, on every
// path, and sees DeadlineExceeded.
func TestQueryTimeoutFires(t *testing.T) {
	const timeout = 40 * time.Millisecond
	woke := make(chan error, 1)
	park := func(ctx context.Context) {
		select {
		case <-ctx.Done():
			woke <- ctx.Err()
		case <-time.After(10 * time.Second):
			woke <- errors.New("QueryTimeout never fired")
		}
	}
	packet := PacketHandlerFunc(func(ctx context.Context, _, _ []byte, _ netip.AddrPort) ([]byte, error) {
		park(ctx)
		return nil, nil
	})
	stream := StreamHandlerFunc(func(ctx context.Context, _, _ []byte, _ net.Addr) ([]byte, error) {
		park(ctx)
		return nil, nil
	})
	for _, tc := range []struct {
		name string
		opts Options
		tcp  bool
	}{
		{"packet inline", Options{Packet: packet}, false},
		{"packet dispatch", Options{Packet: packet, Concurrency: 2}, false},
		{"stream", Options{Stream: stream}, true},
		{"stream pipelined", Options{Stream: stream, Protection: Protection{MaxConnInflight: 4}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.QueryTimeout = timeout
			s, err := New("127.0.0.1:0", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			network, query := "udp", []byte("park")
			if tc.tcp {
				network, query = "tcp", []byte{0, 4, 'p', 'a', 'r', 'k'}
			}
			conn, err := net.Dial(network, s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			start := time.Now()
			if _, err := conn.Write(query); err != nil {
				t.Fatal(err)
			}
			if err := <-woke; err != context.DeadlineExceeded {
				t.Fatalf("handler woke with %v, want DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed < timeout {
				t.Errorf("handler woke after %v, before the %v QueryTimeout", elapsed, timeout)
			}
		})
	}
}

// TestQueryContextEndsWithTheQuery: once the handler has returned,
// the context it was given and everything it derived from it are
// cancelled and no timer stays armed — and the next query on the same
// worker starts live again.
func TestQueryContextEndsWithTheQuery(t *testing.T) {
	type seen struct {
		ctx, child context.Context
		cancel     context.CancelFunc // the test's; the engine must not need it
	}
	got := make(chan seen, 1)
	var arm atomic.Bool // set between exchanges; the socket is no happens-before the race detector knows
	s, err := New("127.0.0.1:0", Options{
		QueryTimeout: time.Hour,
		Packet: PacketHandlerFunc(func(ctx context.Context, out, raw []byte, _ netip.AddrPort) ([]byte, error) {
			if err := ctx.Err(); err != nil {
				return nil, err // dropped: the client read times out and fails the test
			}
			q := seen{ctx: ctx}
			if arm.Load() {
				q.child, q.cancel = context.WithTimeout(ctx, time.Hour)
			}
			got <- q
			return append(out, raw...), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round, armThisRound := range []bool{true, false, true} {
		arm.Store(armThisRound)
		if resp := udpExchange(t, s.Addr(), "q"); resp != "q" {
			t.Fatalf("round %d: response %q", round, resp)
		}
		// The response is written after the handler returns but the
		// context is ended before it, so by now both are done.
		q := <-got
		lazy := q.ctx.(*deadline.Lazy)
		if lazy.Err() == nil {
			t.Errorf("round %d: query context still live after the response", round)
		}
		if q.child != nil {
			select {
			case <-q.child.Done():
			default:
				t.Errorf("round %d: an hour-long context derived by the handler outlived the query", round)
			}
			q.cancel()
		}
	}
}

// TestForcedShutdownCancelsParkedQuery: with a QueryTimeout set the
// query context is a lazy deadline under the engine's base context; a
// forced shutdown must still reach a handler parked on it.
func TestForcedShutdownCancelsParkedQuery(t *testing.T) {
	entered := make(chan struct{})
	woke := make(chan error, 1)
	s, err := New("127.0.0.1:0", Options{
		QueryTimeout: time.Hour,
		Concurrency:  2,
		Packet: PacketHandlerFunc(func(ctx context.Context, _, _ []byte, _ netip.AddrPort) ([]byte, error) {
			close(entered)
			<-ctx.Done() // an upstream exchange waiting on its context
			woke <- ctx.Err()
			return nil, ctx.Err()
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("stuck"))
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the handler")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	select {
	case err := <-woke:
		if err != context.Canceled {
			t.Errorf("parked handler woke with %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forced shutdown did not cancel the parked query")
	}
}
