package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// newStaleCache builds a serve-stale cache on a virtual clock. Tests
// that step through a lifecycle call Wait after each lookup, so the
// refresh it launched has landed before the clock moves again.
func newStaleCache(cfg Config) (*Cache, *virtualClock) {
	clk := &virtualClock{now: time.Unix(1000, 0)}
	cfg.Clock = clk.Now
	return New(cfg), clk
}

func TestServeStaleLifecycle(t *testing.T) {
	// The core RFC 8767 lifecycle on the fake clock: fresh → stale
	// (served with capped TTLs, refresh attempted) → dead (miss).
	tests := []struct {
		name    string
		refresh func(calls *atomic.Int32) Refresher
		// at each step: advance the clock, then Lookup and check.
		steps []struct {
			advance time.Duration
			outcome Outcome
			ttl     uint32 // expected answer TTL (ignored on Miss)
		}
		wantCalls        int32
		wantRefreshFails int64
		wantRefreshes    int64
	}{
		{
			name: "refresh-fails-keeps-serving-stale-until-window-lapses",
			refresh: func(calls *atomic.Int32) Refresher {
				return func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
					calls.Add(1)
					return nil, errors.New("upstream dead")
				}
			},
			steps: []struct {
				advance time.Duration
				outcome Outcome
				ttl     uint32
			}{
				{0, Fresh, 60},
				{59 * time.Second, Fresh, 1},
				{2 * time.Second, Stale, 30},        // expired: stale, TTL capped
				{500 * time.Millisecond, Stale, 30}, // inside backoff: no new attempt
				{2 * time.Second, Stale, 30},        // past backoff: another attempt
				{5 * time.Minute, Miss, 0},          // StaleTTL truly lapsed
			},
			wantCalls:        2,
			wantRefreshFails: 2,
		},
		{
			name: "refresh-success-repopulates-fresh",
			refresh: func(calls *atomic.Int32) Refresher {
				return func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
					calls.Add(1)
					return answer(name, 60), nil
				}
			},
			steps: []struct {
				advance time.Duration
				outcome Outcome
				ttl     uint32
			}{
				{0, Fresh, 60},
				{61 * time.Second, Stale, 30}, // stale served; the refresh repopulates
				{0, Fresh, 60},                // next lookup is fresh again
			},
			wantCalls:     1,
			wantRefreshes: 1,
		},
		{
			name: "servfail-refresh-is-a-failure-not-a-poisoning",
			refresh: func(calls *atomic.Int32) Refresher {
				return func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
					calls.Add(1)
					m := dnswire.NewQuery(1, name, dnswire.TypeA).Reply()
					m.Header.RCode = dnswire.RCodeServFail
					return m, nil
				}
			},
			steps: []struct {
				advance time.Duration
				outcome Outcome
				ttl     uint32
			}{
				{0, Fresh, 60},
				{61 * time.Second, Stale, 30},
				{0, Stale, 30}, // still the old answer, not the SERVFAIL
			},
			wantCalls:        1,
			wantRefreshFails: 1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c, clk := newStaleCache(Config{StaleTTL: 2 * time.Minute})
			var calls atomic.Int32
			c.SetRefresher(tc.refresh(&calls))
			name := dnswire.Name("stale.example.")
			c.Put(name, dnswire.TypeA, answer(name, 60))
			for i, step := range tc.steps {
				clk.Advance(step.advance)
				msg, outcome := c.Lookup(name, dnswire.TypeA)
				c.Wait()
				if outcome != step.outcome {
					t.Fatalf("step %d: outcome = %v, want %v", i, outcome, step.outcome)
				}
				if step.outcome == Miss {
					if msg != nil {
						t.Fatalf("step %d: miss returned a message", i)
					}
					continue
				}
				if msg == nil || len(msg.Answers) == 0 {
					t.Fatalf("step %d: no answer", i)
				}
				if got := msg.Answers[0].TTL; got != step.ttl {
					t.Errorf("step %d: TTL = %d, want %d", i, got, step.ttl)
				}
				if step.outcome == Stale && msg.Header.RCode != dnswire.RCodeNoError {
					t.Errorf("step %d: stale RCode = %v", i, msg.Header.RCode)
				}
			}
			if got := calls.Load(); got != tc.wantCalls {
				t.Errorf("refresher ran %d times, want %d", got, tc.wantCalls)
			}
			st := c.Stats()
			if st.RefreshFails != tc.wantRefreshFails {
				t.Errorf("RefreshFails = %d, want %d", st.RefreshFails, tc.wantRefreshFails)
			}
			if st.Refreshes != tc.wantRefreshes {
				t.Errorf("Refreshes = %d, want %d", st.Refreshes, tc.wantRefreshes)
			}
		})
	}
}

func TestStaleDisabledKeepsClassicExpiry(t *testing.T) {
	c, clk := newTestCache(0) // StaleTTL zero: expiry means miss
	name := dnswire.Name("classic.example.")
	c.Put(name, dnswire.TypeA, answer(name, 60))
	clk.Advance(61 * time.Second)
	if msg, outcome := c.Lookup(name, dnswire.TypeA); msg != nil || outcome != Miss {
		t.Fatalf("expired entry with StaleTTL=0: got (%v, %v), want (nil, Miss)", msg, outcome)
	}
	if c.Len() != 0 {
		t.Errorf("dead entry not removed: len = %d", c.Len())
	}
}

func TestStaleServeNeverBlocksOnRefresh(t *testing.T) {
	// The serving path must return while the background refresh is
	// still in flight (async mode, refresher parked on a channel).
	c, clk := newStaleCache(Config{StaleTTL: time.Minute})
	release := make(chan struct{})
	entered := make(chan struct{})
	c.SetRefresher(func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
		close(entered)
		<-release
		return answer(name, 60), nil
	})
	name := dnswire.Name("noblock.example.")
	c.Put(name, dnswire.TypeA, answer(name, 1))
	clk.Advance(2 * time.Second)

	done := make(chan Outcome, 1)
	go func() {
		_, outcome := c.Lookup(name, dnswire.TypeA)
		done <- outcome
	}()
	select {
	case outcome := <-done:
		if outcome != Stale {
			t.Fatalf("outcome = %v, want Stale", outcome)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stale Lookup blocked on the in-flight refresh")
	}
	<-entered // the refresh really is running concurrently
	close(release)
	c.Wait()
	if st := c.Stats(); st.Refreshes != 1 {
		t.Errorf("Refreshes = %d, want 1", st.Refreshes)
	}
}

func TestStaleRefreshDetachedFromCallerContext(t *testing.T) {
	// The refresh context must be detached: it survives any foreground
	// cancellation and carries the cache's 5 s refresh deadline.
	c, clk := newStaleCache(Config{StaleTTL: time.Minute})
	callerCtx, cancelCaller := context.WithCancel(context.Background())
	ctxErr := make(chan error, 1)
	c.SetRefresher(func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
		// By the time the refresher runs, the foreground caller that
		// triggered it has been cancelled. A refresh wired to the
		// caller's context would be dead here.
		<-callerCtx.Done()
		ctxErr <- ctx.Err()
		if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > refreshTimeout {
			t.Error("refresh context missing the refresh deadline")
		}
		return answer(name, 60), nil
	})
	name := dnswire.Name("detached.example.")
	c.Put(name, dnswire.TypeA, answer(name, 1))
	clk.Advance(2 * time.Second)
	if _, outcome := c.Lookup(name, dnswire.TypeA); outcome != Stale {
		t.Fatalf("outcome = %v, want Stale", outcome)
	}
	cancelCaller() // the foreground caller goes away mid-refresh
	if err := <-ctxErr; err != nil {
		t.Errorf("refresh context cancelled with the caller: %v", err)
	}
	c.Wait()
	if _, outcome := c.Lookup(name, dnswire.TypeA); outcome != Fresh {
		t.Errorf("detached refresh did not repopulate: outcome = %v", outcome)
	}
}

func TestStaleRefreshSingleflight(t *testing.T) {
	// A stale-hit storm on one key launches exactly one refresh.
	c, clk := newStaleCache(Config{StaleTTL: time.Minute})
	var calls atomic.Int32
	release := make(chan struct{})
	c.SetRefresher(func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
		calls.Add(1)
		<-release
		return answer(name, 60), nil
	})
	name := dnswire.Name("storm.example.")
	c.Put(name, dnswire.TypeA, answer(name, 1))
	clk.Advance(2 * time.Second)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, outcome := c.Lookup(name, dnswire.TypeA); outcome != Stale {
				t.Error("storm lookup was not served stale")
			}
		}()
	}
	wg.Wait()
	close(release)
	c.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("refresher ran %d times for one key, want 1", got)
	}
}

func TestPrefetchPopularEntries(t *testing.T) {
	// A popular entry (hits >= floor) whose remaining TTL dips below
	// the threshold is refreshed before it expires; an unpopular one
	// is left to expire.
	c, clk := newStaleCache(Config{
		PrefetchThreshold: 10 * time.Second,
	})
	var calls atomic.Int32
	c.SetRefresher(func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
		calls.Add(1)
		return answer(name, 60), nil
	})
	hot, cold := dnswire.Name("hot.example."), dnswire.Name("cold.example.")
	c.Put(hot, dnswire.TypeA, answer(hot, 60))
	c.Put(cold, dnswire.TypeA, answer(cold, 60))

	// Make hot popular while it is comfortably fresh: no prefetch yet.
	for i := 0; i < 5; i++ {
		c.Get(hot, dnswire.TypeA)
	}
	c.Wait()
	if calls.Load() != 0 {
		t.Fatal("prefetch fired with remaining TTL above the threshold")
	}

	clk.Advance(55 * time.Second) // 5s remaining, below the threshold
	c.Get(cold, dnswire.TypeA)    // first hit ever: below the popularity floor
	c.Wait()
	if calls.Load() != 0 {
		t.Fatal("prefetch fired for an unpopular entry")
	}
	c.Get(hot, dnswire.TypeA) // popular and near expiry: prefetch
	c.Wait()
	if calls.Load() != 1 {
		t.Fatalf("prefetch did not fire for the popular entry (calls=%d)", calls.Load())
	}
	st := c.Stats()
	if st.Prefetches != 1 || st.Refreshes != 1 {
		t.Errorf("Prefetches=%d Refreshes=%d, want 1/1", st.Prefetches, st.Refreshes)
	}

	// The refresh reset the TTL: past the old expiry, hot is fresh
	// while cold (no prefetch, no serve-stale) is gone.
	clk.Advance(10 * time.Second)
	if _, outcome := c.Lookup(hot, dnswire.TypeA); outcome != Fresh {
		t.Errorf("prefetched entry not fresh past old expiry: %v", outcome)
	}
	if _, outcome := c.Lookup(cold, dnswire.TypeA); outcome != Miss {
		t.Errorf("cold entry should have expired: %v", outcome)
	}
}

func TestPrefetchPopularityResetsOnRefresh(t *testing.T) {
	// The hit counter restarts with each refreshed entry, so prefetch
	// continues only while the name keeps earning it.
	c, clk := newStaleCache(Config{
		PrefetchThreshold: 10 * time.Second,
	})
	var calls atomic.Int32
	c.SetRefresher(func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
		calls.Add(1)
		return answer(name, 60), nil
	})
	name := dnswire.Name("fading.example.")
	c.Put(name, dnswire.TypeA, answer(name, 60))
	for i := 0; i < 4; i++ {
		c.Get(name, dnswire.TypeA)
	}
	clk.Advance(55 * time.Second)
	c.Get(name, dnswire.TypeA) // prefetch #1
	c.Wait()
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
	// No further hits: when the refreshed entry nears expiry nothing
	// prefetches it again (one lookup is below the floor).
	clk.Advance(55 * time.Second)
	c.Get(name, dnswire.TypeA)
	c.Wait()
	if calls.Load() != 1 {
		t.Errorf("prefetch refired without renewed popularity (calls=%d)", calls.Load())
	}
}

func TestStaleInstrumentCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c, clk := newStaleCache(Config{
		StaleTTL:          time.Minute,
		PrefetchThreshold: 10 * time.Second,
	})
	c.Instrument(reg, "")
	fail := atomic.Bool{}
	c.SetRefresher(func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
		if fail.Load() {
			return nil, errors.New("down")
		}
		return answer(name, 60), nil
	})
	name := dnswire.Name("metrics.example.")
	c.Put(name, dnswire.TypeA, answer(name, 60))
	for i := 1; i < prefetchMinHits; i++ {
		c.Get(name, dnswire.TypeA) // earn the popularity floor
	}
	clk.Advance(55 * time.Second)
	c.Get(name, dnswire.TypeA) // prefetch (succeeds)
	c.Wait()
	fail.Store(true)
	clk.Advance(61 * time.Second)
	c.Get(name, dnswire.TypeA) // stale serve, refresh fails
	c.Wait()

	want := map[string]int64{
		"cache_stale_served_total": 1,
		"cache_prefetch_total":     1,
		"cache_refresh_fail_total": 1,
		"cache_refreshes_total":    1,
	}
	got := map[string]int64{}
	for _, cv := range reg.Snapshot().Counters {
		got[cv.Name] = cv.Value
	}
	for n, v := range want {
		if got[n] != v {
			t.Errorf("%s = %d, want %d", n, got[n], v)
		}
	}
	checkLedger(t, reg, c)
}

// TestStaleSoak is the -race workout for the serve-stale path:
// concurrent readers hammer a mix of fresh, stale, and dead keys while
// the clock advances and the refresher alternates between success and
// failure. It rides the tier-1 `go test -race ./internal/cache/...`
// gate.
func TestStaleSoak(t *testing.T) {
	c, clk := newStaleCache(Config{
		MaxEntries:        128,
		StaleTTL:          10 * time.Second,
		PrefetchThreshold: 2 * time.Second,
	})
	var flip atomic.Int64
	c.SetRefresher(func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
		if flip.Add(1)%3 == 0 {
			return nil, errors.New("flaky upstream")
		}
		return answer(name, 2), nil
	})
	const keys = 64
	for i := 0; i < keys; i++ {
		n := dnswire.NewName(fmt.Sprintf("soak%d.example.", i))
		c.Put(n, dnswire.TypeA, answer(n, uint32(1+i%4)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := dnswire.NewName(fmt.Sprintf("soak%d.example.", (i+w)%keys))
				msg, outcome := c.Lookup(n, dnswire.TypeA)
				if outcome != Miss && (msg == nil || len(msg.Answers) != 1) {
					t.Error("corrupt served message")
					return
				}
				if outcome == Miss {
					c.Put(n, dnswire.TypeA, answer(n, 2))
				}
			}
		}(w)
	}
	for i := 0; i < 40; i++ {
		clk.Advance(400 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	c.Wait()
	st := c.Stats()
	if st.StaleHits == 0 {
		t.Error("soak produced no stale hits")
	}
	if st.Refreshes == 0 || st.RefreshFails == 0 {
		t.Errorf("soak refreshes %d / fails %d: both should fire", st.Refreshes, st.RefreshFails)
	}
}
