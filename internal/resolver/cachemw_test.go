package resolver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/obs"
)

// cachedAnswer builds a NOERROR reply to q with one A record.
func cachedAnswer(q *dnswire.Message, ttl uint32) *dnswire.Message {
	resp := q.Reply()
	resp.Answers = append(resp.Answers, dnswire.ResourceRecord{
		Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.9")},
	})
	return resp
}

func TestWithCacheHitSkipsTransport(t *testing.T) {
	var calls atomic.Int32
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		calls.Add(1)
		return cachedAnswer(q, 300), Timing{RoundTrip: time.Millisecond, Total: time.Millisecond, Attempts: 1}, nil
	})
	c := cache.New(cache.Config{})
	r := WithCache(next, c, nil, DoH)

	q1 := Query("hit.example.", dnswire.TypeA)
	resp, timing, err := r.Resolve(context.Background(), q1)
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("cold resolve: resp=%v err=%v", resp, err)
	}
	if timing.Reused {
		t.Error("cold resolution reported Reused")
	}

	q2 := Query("hit.example.", dnswire.TypeA)
	resp2, timing2, err := r.Resolve(context.Background(), q2)
	if err != nil {
		t.Fatalf("warm resolve: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("transport called %d times, want 1 (second resolve must hit cache)", got)
	}
	if !timing2.Reused {
		t.Error("cache hit did not set Timing.Reused")
	}
	if resp2.Header.ID != q2.Header.ID {
		t.Errorf("hit response ID = %d, want caller's %d", resp2.Header.ID, q2.Header.ID)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestWithCacheDoesNotCacheErrorsOrServFail(t *testing.T) {
	var calls atomic.Int32
	boom := errors.New("boom")
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		n := calls.Add(1)
		if n == 1 {
			return nil, Timing{Attempts: 1}, boom
		}
		resp := q.Reply()
		resp.Header.RCode = dnswire.RCodeServFail
		return resp, Timing{Attempts: 1}, nil
	})
	c := cache.New(cache.Config{})
	r := WithCache(next, c, nil, DoH)
	if _, _, err := r.Resolve(context.Background(), Query("f.example.", dnswire.TypeA)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	for i := 0; i < 2; i++ {
		resp, _, err := r.Resolve(context.Background(), Query("f.example.", dnswire.TypeA))
		if err != nil || resp.Header.RCode != dnswire.RCodeServFail {
			t.Fatalf("resolve %d: resp=%v err=%v", i, resp, err)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("transport called %d times, want 3 (errors and SERVFAIL must not be cached)", got)
	}
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries after failures", c.Len())
	}
}

func TestWithCacheSingleflightCollapse(t *testing.T) {
	var calls atomic.Int32
	gate := make(chan struct{})
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		calls.Add(1)
		<-gate
		return cachedAnswer(q, 300), Timing{Attempts: 1}, nil
	})
	c := cache.New(cache.Config{})
	r := WithCache(next, c, nil, DoH)

	const n = 6
	var wg sync.WaitGroup
	ids := make([]uint16, n)
	got := make([]*dnswire.Message, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := Query("flock.example.", dnswire.TypeA)
			ids[i] = q.Header.ID
			resp, _, err := r.Resolve(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = resp
		}(i)
	}
	// Wait until every late arrival is parked on the leader's flight.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().SharedFlights < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("transport called %d times for %d concurrent queries, want 1", got, n)
	}
	for i := range got {
		if got[i] == nil {
			t.Fatalf("query %d got no response", i)
		}
		if got[i].Header.ID != ids[i] {
			t.Errorf("query %d: response ID %d, want own %d", i, got[i].Header.ID, ids[i])
		}
	}
}

// TestWithCacheAnswersEachAskersQuestion: a hit and a waiter on a shared
// flight each get their own ID, RD bit and question spelling back, not
// those of the asker whose answer filled the cache.
func TestWithCacheAnswersEachAskersQuestion(t *testing.T) {
	ask := func(name dnswire.Name, rd bool) *dnswire.Message {
		q := Query(name, dnswire.TypeA)
		q.Header.RecursionDesired = rd
		return q
	}
	for _, row := range []string{"hit", "waiter"} {
		t.Run(row, func(t *testing.T) {
			entered, gate := make(chan struct{}, 1), make(chan struct{})
			next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
				entered <- struct{}{}
				<-gate
				return cachedAnswer(q, 300), Timing{Attempts: 1}, nil
			})
			c := cache.New(cache.Config{})
			r := WithCache(next, c, nil, DoH)
			first := make(chan error, 1)
			go func() {
				_, _, err := r.Resolve(context.Background(), ask("WwW.Example.COM.", true))
				first <- err
			}()
			<-entered // the first asker leads the flight
			if row == "hit" {
				close(gate)
				if err := <-first; err != nil {
					t.Fatal(err)
				}
			} else {
				go func() {
					for c.Stats().SharedFlights < 1 {
						time.Sleep(time.Millisecond)
					}
					close(gate)
				}()
			}
			q := ask("www.example.com.", false)
			resp, _, err := r.Resolve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if row == "waiter" {
				if err := <-first; err != nil {
					t.Fatal(err)
				}
			}
			if st := c.Stats(); row == "hit" && st.Hits != 1 || row == "waiter" && st.SharedFlights != 1 {
				t.Fatalf("cache stats = %+v, want the second asker a %s", st, row)
			}
			if h := resp.Header; h.ID != q.Header.ID || h.RecursionDesired || resp.Questions[0].Name != "www.example.com." {
				t.Errorf("answered ID %d RD=%v for %s, want ID %d RD=false for www.example.com.",
					h.ID, h.RecursionDesired, resp.Questions[0].Name, q.Header.ID)
			}
		})
	}
}

// TestWithCacheMissAllocatesNoEntry: a miss nobody joined, over a full
// cache, costs WithCache nothing. The flight is recycled, the insert
// takes over the storage of the entry it evicts, and the leader keeps
// next's message, copied for no one. The next here answers in pooled
// messages its caller hands back, so what is counted is WithCache's own.
func TestWithCacheMissAllocatesNoEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	names := make([]dnswire.Name, 2048)
	for i := range names {
		names[i] = dnswire.Name(fmt.Sprintf("m%05d.example.", i))
	}
	// Boxed once: an RData made per answer would be the test's allocation.
	a := cachedAnswer(Query(names[0], dnswire.TypeA), 300).Answers[0].Data
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		resp := q.ReplyInto(dnswire.GetMessage())
		resp.Answers = append(resp.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300, Data: a,
		})
		return resp, Timing{Attempts: 1}, nil
	})
	c := cache.New(cache.Config{MaxEntries: 256})
	r := WithCache(next, c, nil, DoH)
	ctx := context.Background()
	q := Query(names[0], dnswire.TypeA)
	i := 0
	resolve := func() {
		q.Header.ID++
		q.Questions[0].Name = names[i%len(names)]
		i++
		resp, _, err := r.Resolve(ctx, q)
		if err != nil || resp.Header.ID != q.Header.ID || len(resp.Answers) != 1 || resp.Answers[0].Name != q.Questions[0].Name {
			t.Fatalf("Resolve = %v, %v", resp, err)
		}
		dnswire.PutMessage(resp)
	}
	for range names[:512] { // fill the cache: the measured inserts all evict
		resolve()
	}
	if n := testing.AllocsPerRun(1000, resolve); n != 0 {
		t.Errorf("WithCache miss: %.1f allocs, want 0", n)
	}
	if st := c.Stats(); st.Hits != 0 || st.Evictions == 0 || st.SharedFlights != 0 {
		t.Errorf("measured path was not the lone evicting miss path: %+v", st)
	}
}

func TestWithCacheBypassesMultiQuestion(t *testing.T) {
	var calls atomic.Int32
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		calls.Add(1)
		return q.Reply(), Timing{Attempts: 1}, nil
	})
	c := cache.New(cache.Config{})
	r := WithCache(next, c, nil, DoH)
	q := Query("multi.example.", dnswire.TypeA)
	q.Questions = append(q.Questions, dnswire.Question{Name: "other.example.", Type: dnswire.TypeAAAA, Class: dnswire.ClassIN})
	for i := 0; i < 2; i++ {
		if _, _, err := r.Resolve(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("transport called %d times, want 2 (multi-question queries bypass the cache)", got)
	}
	if st := c.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("cache touched by bypassed query: %+v", st)
	}
}

func TestWithCacheHitHistogram(t *testing.T) {
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		return cachedAnswer(q, 300), Timing{Attempts: 1}, nil
	})
	reg := obs.NewRegistry()
	c := cache.New(cache.Config{})
	r := WithCache(next, c, reg, DoH)
	for i := 0; i < 3; i++ {
		if _, _, err := r.Resolve(context.Background(), Query("h.example.", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	for _, h := range snap.Histograms {
		if h.Name == "resolver_doh_cache_hit_ms" {
			if h.Count != 2 {
				t.Errorf("cache_hit histogram count = %d, want 2", h.Count)
			}
			return
		}
	}
	t.Error("resolver_doh_cache_hit_ms histogram not registered")
}

func TestPolicyCacheOutermost(t *testing.T) {
	// Over the full Policy stack, a cache hit must not enter the
	// transport histograms: queries_total stays at the miss count.
	var calls atomic.Int32
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		calls.Add(1)
		return cachedAnswer(q, 300), Timing{RoundTrip: time.Millisecond, Total: time.Millisecond, Attempts: 1}, nil
	})
	reg := obs.NewRegistry()
	c := cache.New(cache.Config{})
	r := WithCache(Apply(next, Policy{
		Retry:    &RetryPolicy{MaxAttempts: 2},
		Registry: reg,
		Kind:     DoH,
	}), c, reg, DoH)
	for i := 0; i < 5; i++ {
		if _, _, err := r.Resolve(context.Background(), Query("outer.example.", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("transport called %d times, want 1", got)
	}
	snap := reg.Snapshot()
	for _, cv := range snap.Counters {
		if cv.Name == "resolver_doh_queries_total" && cv.Value != 1 {
			t.Errorf("queries_total = %d, want 1 (hits must not reach WithMetrics)", cv.Value)
		}
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 4 hits / 1 miss", st)
	}
}

func TestWithHedgingNFanOut(t *testing.T) {
	// Three attempts fail fast; the fourth (allowed by max=4) succeeds.
	var calls atomic.Int32
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		if n := calls.Add(1); n < 4 {
			return nil, Timing{Attempts: 1}, errWire
		}
		return q.Reply(), Timing{Attempts: 1}, nil
	})
	var m Metrics
	r := WithHedgingN(next, time.Millisecond, 4, &m)
	resp, timing, err := r.Resolve(context.Background(), Query("fan.example.", dnswire.TypeA))
	if err != nil || resp == nil {
		t.Fatalf("Resolve: %v", err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("attempts launched = %d, want 4", got)
	}
	if timing.Attempts != 4 {
		t.Errorf("Timing.Attempts = %d, want 4", timing.Attempts)
	}
	if got := m.Hedges.Load(); got != 3 {
		t.Errorf("hedges = %d, want 3", got)
	}
}

func TestWithHedgingNAllFail(t *testing.T) {
	var calls atomic.Int32
	first := errors.New("first failure")
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		if calls.Add(1) == 1 {
			return nil, Timing{Attempts: 1}, first
		}
		return nil, Timing{Attempts: 1}, errWire
	})
	r := WithHedgingN(next, time.Millisecond, 3, nil)
	_, timing, err := r.Resolve(context.Background(), Query("dead.example.", dnswire.TypeA))
	if !errors.Is(err, first) {
		t.Errorf("err = %v, want the first failure", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (fan-out exhausted)", got)
	}
	if timing.Attempts != 3 {
		t.Errorf("Timing.Attempts = %d, want 3", timing.Attempts)
	}
}

// TestPooledAnswersLeaveTheCacheIntact: every answer WithCache returns is
// its caller's, sections included — the leader's, a waiter's on its
// flight and a young hit's — so a caller that pools its answers, and then
// decodes other messages into the pool, cannot reach a cached record.
func TestPooledAnswersLeaveTheCacheIntact(t *testing.T) {
	const name = "pooled.example."
	entered, release := make(chan struct{}), make(chan struct{})
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		close(entered)
		<-release
		return cachedAnswer(q, 300), Timing{Attempts: 1}, nil
	})
	c := cache.New(cache.Config{})
	r := WithCache(next, c, nil, DoH)
	ctx := context.Background()

	answers := make(chan *dnswire.Message, 2)
	resolve := func() {
		resp, _, err := r.Resolve(ctx, Query(name, dnswire.TypeA))
		if err != nil {
			t.Error(err)
		}
		answers <- resp
	}
	go resolve()
	<-entered
	go resolve()
	for c.Stats().SharedFlights < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	leader, waiter := <-answers, <-answers
	hit, _, err := r.Resolve(ctx, Query(name, dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := c.Lookup(name, dnswire.TypeA)
	want, err := stored.Pack()
	if err != nil {
		t.Fatal(err)
	}

	other := cachedAnswer(Query("other.example.", dnswire.TypeA), 7)
	other.Answers[0].Data = dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.1")}
	otherWire, err := other.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*dnswire.Message{leader, waiter, hit} {
		dnswire.PutMessage(m)
	}
	for i := 0; i < 3; i++ {
		if err := dnswire.UnpackInto(otherWire, dnswire.GetMessage()); err != nil {
			t.Fatal(err)
		}
	}
	stored, _ = c.Lookup(name, dnswire.TypeA)
	got, err := stored.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("pooled answers rewrote the cached one:\n got %x\nwant %x", got, want)
	}
}
