package cache

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

func answer(name dnswire.Name, ttl uint32) *dnswire.Message {
	m := dnswire.NewQuery(1, name, dnswire.TypeA).Reply()
	m.Answers = append(m.Answers, dnswire.ResourceRecord{
		Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.7")},
	})
	return m
}

func negative(name dnswire.Name, soaTTL, minimum uint32) *dnswire.Message {
	m := dnswire.NewQuery(1, name, dnswire.TypeA).Reply()
	m.Header.RCode = dnswire.RCodeNXDomain
	m.Authorities = append(m.Authorities, dnswire.ResourceRecord{
		Name: "a.com.", Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: soaTTL,
		Data: dnswire.SOARecord{MName: "ns1.a.com.", RName: "h.a.com.", Minimum: minimum},
	})
	return m
}

// virtualClock is a test time source advanced by hand.
type virtualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (v *virtualClock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

func (v *virtualClock) Advance(d time.Duration) {
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

func newTestCache(max int) (*Cache, *virtualClock) {
	clk := &virtualClock{now: time.Unix(1000, 0)}
	return New(Config{MaxEntries: max, Clock: clk.Now}), clk
}

func TestPutGetCaseInsensitive(t *testing.T) {
	c, _ := newTestCache(0)
	if c.Get("x.a.com.", dnswire.TypeA) != nil {
		t.Fatal("empty cache returned an entry")
	}
	c.Put("x.a.com.", dnswire.TypeA, answer("x.a.com.", 60))
	got := c.Get("X.A.COM.", dnswire.TypeA)
	if got == nil {
		t.Fatal("cache miss after Put")
	}
	if got.Answers[0].TTL != 60 {
		t.Errorf("TTL = %d, want 60", got.Answers[0].TTL)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put", st)
	}
}

func TestZeroAgeHitSharesStoredMessage(t *testing.T) {
	c, clk := newTestCache(0)
	msg := answer("warm.a.com.", 60)
	c.Put("warm.a.com.", dnswire.TypeA, msg)
	if got := c.Get("warm.a.com.", dnswire.TypeA); got != msg {
		t.Error("sub-second hit did not return the stored message (warm path must not copy)")
	}
	clk.Advance(2 * time.Second)
	got := c.Get("warm.a.com.", dnswire.TypeA)
	if got == msg {
		t.Error("aged hit returned the stored message; aging must copy")
	}
	if got.Answers[0].TTL != 58 {
		t.Errorf("aged TTL = %d, want 58", got.Answers[0].TTL)
	}
	if msg.Answers[0].TTL != 60 {
		t.Errorf("stored message mutated: TTL = %d", msg.Answers[0].TTL)
	}
}

func TestExpiry(t *testing.T) {
	c, clk := newTestCache(0)
	c.Put("x.a.com.", dnswire.TypeA, answer("x.a.com.", 60))
	clk.Advance(59 * time.Second)
	if c.Get("x.a.com.", dnswire.TypeA) == nil {
		t.Fatal("expired one second early")
	}
	clk.Advance(time.Second) // exactly at expiry: gone
	if c.Get("x.a.com.", dnswire.TypeA) != nil {
		t.Fatal("entry survived to its expiry instant")
	}
	if c.Len() != 0 {
		t.Errorf("expired entry not removed on access: len = %d", c.Len())
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("expiry counted as eviction: %+v", st)
	}
}

func TestTTLZeroAndUncacheable(t *testing.T) {
	c, _ := newTestCache(0)
	// TTL=0 answers must not be cached (they are already stale).
	c.Put("z.a.com.", dnswire.TypeA, answer("z.a.com.", 0))
	if c.Len() != 0 {
		t.Error("cached a TTL-0 answer")
	}
	// Empty answer with no SOA has no TTL source at all.
	empty := dnswire.NewQuery(1, "e.a.com.", dnswire.TypeA).Reply()
	c.Put("e.a.com.", dnswire.TypeA, empty)
	if c.Len() != 0 {
		t.Error("cached a message with no TTL source")
	}
	// Negative answer whose SOA MINIMUM is zero: also uncacheable.
	c.Put("n.a.com.", dnswire.TypeA, negative("n.a.com.", 3600, 0))
	if c.Len() != 0 {
		t.Error("cached a zero-TTL negative answer")
	}
	if st := c.Stats(); st.Puts != 0 {
		t.Errorf("rejected Puts counted: %+v", st)
	}
}

func TestNegativeCachingRFC2308(t *testing.T) {
	c, clk := newTestCache(0)
	c.Put("gone.a.com.", dnswire.TypeA, negative("gone.a.com.", 3600, 30))
	got := c.Get("gone.a.com.", dnswire.TypeA)
	if got == nil {
		t.Fatal("negative answer not cached")
	}
	if got.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("RCode = %v", got.Header.RCode)
	}
	st := c.Stats()
	if st.Hits != 1 || st.NegativeHits != 1 {
		t.Errorf("stats = %+v, want negative hit counted in both", st)
	}
	// Lives for the SOA MINIMUM, not the SOA TTL.
	clk.Advance(30 * time.Second)
	if c.Get("gone.a.com.", dnswire.TypeA) != nil {
		t.Fatal("negative entry outlived SOA MINIMUM")
	}

	// When the SOA record's own TTL is below MINIMUM, the TTL caps.
	c.Put("brief.a.com.", dnswire.TypeA, negative("brief.a.com.", 10, 300))
	clk.Advance(9 * time.Second)
	if c.Get("brief.a.com.", dnswire.TypeA) == nil {
		t.Fatal("capped negative entry expired early")
	}
	clk.Advance(time.Second)
	if c.Get("brief.a.com.", dnswire.TypeA) != nil {
		t.Fatal("negative entry outlived its SOA TTL cap")
	}
}

func TestCapacityAndLRUEviction(t *testing.T) {
	// max=3 collapses to a single shard, so eviction order is global
	// LRU and exactly predictable.
	c, _ := newTestCache(3)
	for _, n := range []dnswire.Name{"a.z.", "b.z.", "c.z."} {
		c.Put(n, dnswire.TypeA, answer(n, 60))
	}
	c.Get("a.z.", dnswire.TypeA) // refresh a.z.
	c.Put("d.z.", dnswire.TypeA, answer("d.z.", 60))
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if c.Get("b.z.", dnswire.TypeA) != nil {
		t.Error("LRU entry b.z. not evicted")
	}
	if c.Get("a.z.", dnswire.TypeA) == nil {
		t.Error("recently used a.z. was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestShardingDistributesAndBoundsCapacity(t *testing.T) {
	c, _ := newTestCache(1024)
	if len(c.shards) != 16 {
		t.Fatalf("shards = %d, want 16", len(c.shards))
	}
	total := 0
	for i := range c.shards {
		total += c.shards[i].max
	}
	if total != 1024 {
		t.Errorf("shard capacities sum to %d, want 1024", total)
	}
	for i := 0; i < 4096; i++ {
		n := dnswire.NewName(fmt.Sprintf("d%04d.example.", i))
		c.Put(n, dnswire.TypeA, answer(n, 300))
	}
	if got := c.Len(); got > 1024 {
		t.Errorf("len = %d exceeds capacity 1024", got)
	}
	// FNV spreads sequential names: every shard should hold something.
	for i := range c.shards {
		if len(c.shards[i].entries) == 0 {
			t.Errorf("shard %d empty after 4096 inserts", i)
		}
	}
	if st := c.Stats(); st.Evictions != int64(st.Puts)-int64(c.Len()) {
		t.Errorf("evictions %d != puts %d - len %d", st.Evictions, st.Puts, c.Len())
	}
}

func TestShardCollapseForTinyCaches(t *testing.T) {
	c, _ := newTestCache(3)
	if len(c.shards) != 1 {
		t.Errorf("tiny cache got %d shards, want 1", len(c.shards))
	}
	c, _ = newTestCache(64)
	if len(c.shards) != 8 {
		t.Errorf("64-entry cache got %d shards, want 8", len(c.shards))
	}
}

// TestConcurrentGetSetExpire is the -race workout: writers, readers,
// and a clock mover hammer overlapping keys across shards.
func TestConcurrentGetSetExpire(t *testing.T) {
	c, clk := newTestCache(256)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := dnswire.NewName(fmt.Sprintf("k%d.example.", i%97))
				c.Put(n, dnswire.TypeA, answer(n, uint32(1+i%5)))
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := dnswire.NewName(fmt.Sprintf("k%d.example.", (i+w)%97))
				if got := c.Get(n, dnswire.TypeA); got != nil && len(got.Answers) != 1 {
					t.Error("corrupt cached message")
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		clk.Advance(500 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 || st.Puts == 0 {
		t.Errorf("workout did nothing: %+v", st)
	}
}

func TestSingleflightCollapses(t *testing.T) {
	c, _ := newTestCache(0)
	var calls atomic.Int32
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*dnswire.Message, waiters)
	sharedCount := atomic.Int32{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg, shared, err := c.Do(context.Background(), "flock.a.com.", dnswire.TypeA, func() (*dnswire.Message, error) {
				calls.Add(1)
				<-release
				return answer("flock.a.com.", 60), nil
			})
			if err != nil {
				t.Error(err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = msg
		}(i)
	}
	// Let every goroutine reach Do before releasing the leader.
	for int(c.Stats().SharedFlights) < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != waiters-1 {
		t.Errorf("shared = %d, want %d", got, waiters-1)
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatalf("waiter %d got a different message", i)
		}
	}
}

func TestSingleflightErrorsNotSticky(t *testing.T) {
	c, _ := newTestCache(0)
	var calls atomic.Int32
	fail := func() (*dnswire.Message, error) {
		calls.Add(1)
		return nil, fmt.Errorf("boom %d", calls.Load())
	}
	for i := 0; i < 3; i++ {
		if _, shared, err := c.Do(context.Background(), "err.a.com.", dnswire.TypeA, fail); err == nil || shared {
			t.Fatalf("call %d: err=%v shared=%v", i, err, shared)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("sequential failures ran fn %d times, want 3 (errors must not stick)", got)
	}
}

func TestSingleflightWaiterCancellation(t *testing.T) {
	c, _ := newTestCache(0)
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(context.Background(), "slow.a.com.", dnswire.TypeA, func() (*dnswire.Message, error) {
			close(started) // the flight is registered before fn runs
			<-release
			return answer("slow.a.com.", 60), nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, shared, err := c.Do(ctx, "slow.a.com.", dnswire.TypeA, func() (*dnswire.Message, error) {
		t.Error("waiter ran fn while the leader was in flight")
		return nil, nil
	})
	if !shared {
		t.Error("second caller did not join the leader's flight")
	}
	if err == nil {
		t.Error("cancelled waiter returned nil error")
	}
	close(release)
	<-leaderDone
}

func TestInstrumentMirrorsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c, _ := newTestCache(2)
	c.Instrument(reg, "")
	c.Get("a.z.", dnswire.TypeA) // miss
	c.Put("a.z.", dnswire.TypeA, answer("a.z.", 60))
	c.Get("a.z.", dnswire.TypeA) // hit
	c.Put("neg.z.", dnswire.TypeA, negative("neg.z.", 3600, 60))
	c.Get("neg.z.", dnswire.TypeA)                   // negative hit
	c.Put("b.z.", dnswire.TypeA, answer("b.z.", 60)) // evicts a.z.
	c.Put("c.z.", dnswire.TypeA, answer("c.z.", 60)) // evicts neg.z.

	want := map[string]int64{
		"cache_hits_total":                2,
		"cache_misses_total":              1,
		"cache_negative_hits_total":       1,
		"cache_evictions_total":           2,
		"cache_singleflight_shared_total": 0,
	}
	snap := reg.Snapshot()
	got := map[string]int64{}
	for _, cv := range snap.Counters {
		got[cv.Name] = cv.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.NegativeHits != 1 || st.Evictions != 2 {
		t.Errorf("internal stats diverged from registry: %+v", st)
	}
}

func TestDeterministicCounters(t *testing.T) {
	// The same Get/Put sequence yields identical stats — the property
	// the cached-campaign golden test leans on.
	run := func() Stats {
		c, clk := newTestCache(8)
		for i := 0; i < 40; i++ {
			n := dnswire.NewName(fmt.Sprintf("d%d.example.", i%13))
			if c.Get(n, dnswire.TypeA) == nil {
				c.Put(n, dnswire.TypeA, answer(n, 5))
			}
			if i%7 == 0 {
				clk.Advance(2 * time.Second)
			}
		}
		return c.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("stats differ across identical runs: %+v vs %+v", a, b)
	}
}
