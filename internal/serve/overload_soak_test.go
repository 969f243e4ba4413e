package serve

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestOverloadSoak is the graceful-degradation gate: closed-loop UDP
// clients offer roughly an order of magnitude more load than the
// admission budget admits, a couple of them inject handler panics, and
// response rate limiting runs with a bucket far below the offered
// rate. The contract under that abuse:
//
//   - accepted queries keep a bounded latency (the budget sheds excess
//     instead of queueing it),
//   - every defense fires and is counted, and the engine's balance —
//     packets read = answered + dropped + shed + RRL dropped + RRL
//     slipped — holds exactly,
//   - a graceful Shutdown in the middle of the overload still drains
//     cleanly.
//
// Tier-1 runs it with -race -short.
func TestOverloadSoak(t *testing.T) {
	duration := 3 * time.Second
	if testing.Short() {
		duration = 700 * time.Millisecond
	}
	reg := obs.NewRegistry()
	s, err := New("127.0.0.1:0", Options{
		Packet: PacketHandlerFunc(func(_ context.Context, out, raw []byte, _ netip.AddrPort) ([]byte, error) {
			if bytes.Contains(raw, []byte("inject-panic")) {
				panic("overload soak fault injection")
			}
			time.Sleep(2 * time.Millisecond)
			// Answer with QR set so clients can tell a real answer from
			// their own query; everything else is echoed.
			out = append(out, raw...)
			out[2] |= flagQR
			return out, nil
		}),
		Listeners:   2,
		Concurrency: 4,
		Registry:    reg,
		Protection: Protection{
			MaxInflight: 8, // ~10x under the offered concurrency below
			RateLimit:   2000,
			RateBurst:   50,
			RateSlip:    2,
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var answered, shedSeen, slipSeen, timeouts atomic.Int64
	var mu sync.Mutex
	var acceptedLat []time.Duration

	const clients = 80
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("udp", s.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			tag := "query"
			if c < 8 {
				// Fault injectors. An injector's query panics only if it
				// is neither rate-limited nor shed, and a rate-limited one
				// costs it a 250 ms read timeout: two injectors made about
				// fifteen useful tries between them on a busy box, and
				// one run in six ended with no panic at all.
				tag = "inject-panic"
			}
			buf := make([]byte, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := dnsShaped(uint16(c<<8|i&0xff), tag)
				start := time.Now()
				if _, err := conn.Write(q); err != nil {
					return // shutdown closed the path
				}
				conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
				n, err := conn.Read(buf)
				if err != nil {
					timeouts.Add(1) // RRL drop, or the server is gone
					continue
				}
				resp := buf[:n]
				switch {
				case isServFail(q, resp):
					shedSeen.Add(1)
				case isTC(q, resp):
					slipSeen.Add(1)
				case len(resp) == len(q) && resp[2]&flagQR != 0:
					answered.Add(1)
					mu.Lock()
					acceptedLat = append(acceptedLat, time.Since(start))
					mu.Unlock()
				default:
					t.Errorf("unclassifiable response %x to %x", resp, q)
					return
				}
			}
		}(c)
	}

	// Shutdown fires mid-overload, while clients are still hammering:
	// the drain has to complete with the budget full and sheds flying.
	time.Sleep(duration)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown mid-overload: %v", err)
	}
	close(stop)
	wg.Wait()

	packets := reg.Counter("serve_packets_total").Value()
	responses := reg.Counter("serve_responses_total").Value()
	dropped := reg.Counter("serve_dropped_total").Value()
	shed := reg.Counter("serve_shed_total").Value()
	rlDropped := reg.Counter("serve_ratelimit_dropped_total").Value()
	rlSlipped := reg.Counter("serve_ratelimit_slipped_total").Value()
	panics := reg.Counter("serve_panic_total").Value()

	// Exact balance: every datagram the engine read was answered,
	// deliberately dropped, shed, or rate-limited — none vanished, even
	// through the mid-overload drain.
	if packets != responses+dropped+shed+rlDropped+rlSlipped {
		t.Fatalf("accounting imbalance: packets=%d responses=%d dropped=%d shed=%d rl_dropped=%d rl_slipped=%d",
			packets, responses, dropped, shed, rlDropped, rlSlipped)
	}
	// Every defense actually fired under this load shape.
	if responses == 0 || shed == 0 || rlDropped == 0 || rlSlipped == 0 || panics == 0 {
		t.Fatalf("a defense never fired: responses=%d shed=%d rl_dropped=%d rl_slipped=%d panics=%d",
			responses, shed, rlDropped, rlSlipped, panics)
	}
	// Accepted queries kept their latency contract: the budget shed the
	// excess instead of queueing it into multi-second waits. The bound
	// is deliberately loose for race-detector and CI noise; the failure
	// mode it catches (unbounded queueing) is seconds, not hundreds of
	// milliseconds.
	if n := len(acceptedLat); n > 0 {
		sort.Slice(acceptedLat, func(i, j int) bool { return acceptedLat[i] < acceptedLat[j] })
		p99 := acceptedLat[n*99/100]
		if p99 > time.Second {
			t.Fatalf("accepted-query p99 = %v across %d answers, latency contract broken", p99, n)
		}
		t.Logf("overload soak: %d answered (p99 %v), %d shed, %d rl-dropped, %d rl-slipped, %d panics, %d client timeouts",
			answered.Load(), p99, shed, rlDropped, rlSlipped, panics, timeouts.Load())
	}
}
