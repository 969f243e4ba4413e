package resolver

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
)

// TestWithCacheServesStaleOnDeadUpstream is the middleware-level
// serve-stale contract: once the upstream dies, expired entries keep
// answering (Timing.Stale, capped TTL) instead of surfacing errors,
// until StaleTTL lapses.
func TestWithCacheServesStaleOnDeadUpstream(t *testing.T) {
	now := time.Unix(5000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	dead := atomic.Bool{}
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		if dead.Load() {
			return nil, Timing{}, errors.New("upstream dead")
		}
		return cachedAnswer(q, 60), Timing{Attempts: 1}, nil
	})
	c := cache.New(cache.Config{Clock: clock, StaleTTL: 5 * time.Minute})
	r := WithCache(next, c, nil, DoH)

	q := Query("stale.example.", dnswire.TypeA)
	if _, _, err := r.Resolve(context.Background(), q); err != nil {
		t.Fatalf("warm-up resolve: %v", err)
	}

	dead.Store(true)
	advance(61 * time.Second) // entry expired, upstream gone

	resp, timing, err := r.Resolve(context.Background(), Query("stale.example.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("stale window resolve errored: %v", err)
	}
	if !timing.Stale || !timing.Reused {
		t.Errorf("timing = %+v, want Stale and Reused", timing)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].TTL > 30 {
		t.Errorf("stale answer TTL not capped: %+v", resp.Answers)
	}
	c.Wait()
	if c.Stats().RefreshFails == 0 {
		t.Error("dead-upstream refresh was not attempted/recorded")
	}

	advance(6 * time.Minute) // StaleTTL lapsed: errors are honest again
	if _, _, err := r.Resolve(context.Background(), Query("stale.example.", dnswire.TypeA)); err == nil {
		t.Error("resolve past StaleTTL should surface the upstream error")
	}

	dead.Store(false)
	resp, timing, err = r.Resolve(context.Background(), Query("stale.example.", dnswire.TypeA))
	if err != nil || timing.Stale {
		t.Fatalf("recovered resolve: err=%v timing=%+v", err, timing)
	}
	if resp.Answers[0].TTL != 60 {
		t.Errorf("recovered TTL = %d, want 60", resp.Answers[0].TTL)
	}
}

// TestWithCacheRefresherUsesFreshQueryID checks the refresher that
// WithCache installs resolves with its own query ID and the question
// it was asked for — not a recycled foreground query.
func TestWithCacheRefresherUsesFreshQueryID(t *testing.T) {
	clockNow := atomic.Int64{}
	clockNow.Store(time.Unix(5000, 0).UnixNano())
	clock := func() time.Time { return time.Unix(0, clockNow.Load()) }

	var seen []uint16
	var mu sync.Mutex
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		mu.Lock()
		seen = append(seen, q.Header.ID)
		mu.Unlock()
		if len(q.Questions) != 1 || q.Questions[0].Name != "id.example." {
			t.Errorf("refresher question = %+v", q.Questions)
		}
		return cachedAnswer(q, 60), Timing{Attempts: 1}, nil
	})
	c := cache.New(cache.Config{Clock: clock, StaleTTL: time.Minute})
	r := WithCache(next, c, nil, DoH)

	if _, _, err := r.Resolve(context.Background(), Query("id.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	clockNow.Store(time.Unix(5061, 0).UnixNano())
	if _, timing, err := r.Resolve(context.Background(), Query("id.example.", dnswire.TypeA)); err != nil || !timing.Stale {
		t.Fatalf("stale resolve: err=%v timing=%+v", err, timing)
	}
	c.Wait()
	if len(seen) != 2 {
		t.Fatalf("upstream saw %d queries, want 2 (miss + refresh)", len(seen))
	}
}

// TestWithCacheLeaderResponseIsPrivate is the regression test for the
// shared-message corruption bug: the miss (leader) path used to return
// the exact *Message it had just handed to cache.Put, so a caller
// stamping the response Header — every DNS server stamps the client's
// query ID — mutated the message concurrent warm hits were reading.
// Pre-fix, `go test -race` catches the write/read race here; post-fix
// the leader gets a private copy and the loop below is quiet.
func TestWithCacheLeaderResponseIsPrivate(t *testing.T) {
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		return cachedAnswer(q, 300), Timing{Attempts: 1}, nil
	})
	c := cache.New(cache.Config{})
	r := WithCache(next, c, nil, DoH)

	// The leader resolution. Pre-fix, resp aliased the message the
	// cache retained for warm hits.
	resp, _, err := r.Resolve(context.Background(), Query("leader.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		// What a server does with every response: stamp the client's
		// identity onto the header, over and over for each client.
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			resp.Header.ID = uint16(i)
			resp.Header.RecursionAvailable = i%2 == 0
		}
	}()
	go func() {
		// Meanwhile warm hits read (struct-copy) the cached message.
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			if _, _, err := r.Resolve(context.Background(), Query("leader.example.", dnswire.TypeA)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// The cached copy must still carry the upstream's answer, not some
	// caller's stamp.
	cached := c.Get("leader.example.", dnswire.TypeA)
	if cached == nil || len(cached.Answers) != 1 {
		t.Fatal("cached entry lost")
	}
	if cached.Header.RCode != dnswire.RCodeNoError {
		t.Errorf("cached header corrupted: %+v", cached.Header)
	}
}
