package cache

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
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

// pacer paces a soak on its fake clock by the soak's own progress
// instead of the wall clock: each step, every worker does k operations
// and then holds, and Step advances the clock once every worker still
// running has done them. A worker counts each operation with Did and
// calls Quit when it returns, so that a worker that stops early is not
// waited for; Stop releases the held workers for good.
type pacer struct {
	k     int64
	steps atomic.Int64
	ops   []atomic.Int64
	quit  []atomic.Bool
	done  atomic.Bool
}

func newPacer(workers int, k int64) *pacer {
	return &pacer{k: k, ops: make([]atomic.Int64, workers), quit: make([]atomic.Bool, workers)}
}

// Did counts an operation of worker w and holds w, once it has done the
// step's k, until the next step or Stop.
func (p *pacer) Did(w int) {
	n := p.ops[w].Add(1)
	waitUntil(func() bool { return n < (p.steps.Load()+1)*p.k || p.done.Load() })
}

func (p *pacer) Quit(w int) { p.quit[w].Store(true) }
func (p *pacer) Stop()      { p.done.Store(true) }

// Step waits until every worker still running has done the step's k
// operations, then runs advance and starts the next step.
func (p *pacer) Step(advance func()) {
	due := (p.steps.Load() + 1) * p.k
	for w := range p.ops {
		waitUntil(func() bool { return p.quit[w].Load() || p.ops[w].Load() >= due })
	}
	advance()
	p.steps.Add(1)
}

// waitUntil yields until cond holds: a wait on observable state, not on
// the wall clock.
func waitUntil(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// get is c's answer for (name, typ), a copy of its own, or nil on a miss.
func get(c *Cache, name dnswire.Name, typ dnswire.Type) *dnswire.Message {
	msg, _ := c.Lookup(name, typ)
	return msg
}

func TestPutGetCaseInsensitive(t *testing.T) {
	c, _ := newTestCache(0)
	if get(c, "x.a.com.", dnswire.TypeA) != nil {
		t.Fatal("empty cache returned an entry")
	}
	c.Put("x.a.com.", dnswire.TypeA, answer("x.a.com.", 60))
	got := get(c, "X.A.COM.", dnswire.TypeA)
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

func TestExpiry(t *testing.T) {
	c, clk := newTestCache(0)
	c.Put("x.a.com.", dnswire.TypeA, answer("x.a.com.", 60))
	clk.Advance(59 * time.Second)
	if get(c, "x.a.com.", dnswire.TypeA) == nil {
		t.Fatal("expired one second early")
	}
	clk.Advance(time.Second) // exactly at expiry: gone
	if get(c, "x.a.com.", dnswire.TypeA) != nil {
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
	got := get(c, "gone.a.com.", dnswire.TypeA)
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
	if get(c, "gone.a.com.", dnswire.TypeA) != nil {
		t.Fatal("negative entry outlived SOA MINIMUM")
	}

	// When the SOA record's own TTL is below MINIMUM, the TTL caps.
	c.Put("brief.a.com.", dnswire.TypeA, negative("brief.a.com.", 10, 300))
	clk.Advance(9 * time.Second)
	if get(c, "brief.a.com.", dnswire.TypeA) == nil {
		t.Fatal("capped negative entry expired early")
	}
	clk.Advance(time.Second)
	if get(c, "brief.a.com.", dnswire.TypeA) != nil {
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
	c.Lookup("a.z.", dnswire.TypeA) // refresh a.z.
	c.Put("d.z.", dnswire.TypeA, answer("d.z.", 60))
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if get(c, "b.z.", dnswire.TypeA) != nil {
		t.Error("LRU entry b.z. not evicted")
	}
	if get(c, "a.z.", dnswire.TypeA) == nil {
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
		if c.shards[i].index.n == 0 {
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
	p := newPacer(8, 16)
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			defer p.Quit(2 * w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := dnswire.NewName(fmt.Sprintf("k%d.example.", i%97))
				c.Put(n, dnswire.TypeA, answer(n, uint32(1+i%5)))
				p.Did(2 * w)
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			defer p.Quit(2*w + 1)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := dnswire.NewName(fmt.Sprintf("k%d.example.", (i+w)%97))
				if got := get(c, n, dnswire.TypeA); got != nil && len(got.Answers) != 1 {
					t.Error("corrupt cached message")
					return
				}
				p.Did(2*w + 1)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		p.Step(func() { clk.Advance(500 * time.Millisecond) })
	}
	close(stop)
	p.Stop()
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 || st.Puts == 0 {
		t.Errorf("workout did nothing: %+v", st)
	}
}

// TestSingleflightCollapses: concurrent Dos for one key run fn once. The
// leader gets fn's message itself, and every waiter one shared copy of it
// that the flight took before the leader returned: equal to the leader's
// answer, not the leader's message, and unchanged when the leader then
// overwrites its own.
func TestSingleflightCollapses(t *testing.T) {
	c, _ := newTestCache(0)
	var calls atomic.Int32
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	var leaderMsg *dnswire.Message
	want, err := answer("flock.a.com.", 60).Pack()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*dnswire.Message, waiters)
	sharedCount := atomic.Int32{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg, shared, err := c.Do(context.Background(), "flock.a.com.", dnswire.TypeA, func() (*dnswire.Message, error) {
				calls.Add(1)
				<-release
				leaderMsg = answer("flock.a.com.", 60)
				return leaderMsg, nil
			})
			if err != nil {
				t.Error(err)
			}
			if shared {
				sharedCount.Add(1)
			} else {
				// The leader's answer is its own: overwrite it at once.
				msg.Header.ID = 0xBAD
				msg.Questions[0].Name = "overwritten.a.com."
				msg.Answers[0].TTL = 1
			}
			results[i] = msg
		}(i)
	}
	// Let every goroutine reach Do before releasing the leader.
	waitUntil(func() bool { return c.Stats().SharedFlights >= waiters-1 })
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != waiters-1 {
		t.Errorf("shared = %d, want %d", got, waiters-1)
	}
	var copied *dnswire.Message
	for i, msg := range results {
		if msg == leaderMsg {
			continue
		}
		if copied == nil {
			copied = msg
		}
		if msg != copied {
			t.Fatalf("waiter %d got a copy of its own, want the one shared copy", i)
		}
	}
	if copied == nil {
		t.Fatal("no waiter got a copy")
	}
	got, err := copied.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the waiters' copy changed with the leader's message:\n got %x\nwant %x", got, want)
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
	c.Lookup("a.z.", dnswire.TypeA) // miss
	c.Put("a.z.", dnswire.TypeA, answer("a.z.", 60))
	c.Lookup("a.z.", dnswire.TypeA) // hit
	c.Put("neg.z.", dnswire.TypeA, negative("neg.z.", 3600, 60))
	c.Lookup("neg.z.", dnswire.TypeA)                // negative hit
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
	checkLedger(t, reg, c)
}

// checkLedger fails t unless reg's counters are c's Stats, field by
// field under its documented name, and nothing else.
func checkLedger(t *testing.T, reg *obs.Registry, c *Cache) {
	t.Helper()
	st := c.Stats()
	want := map[string]int64{
		"cache_hits_total":                st.Hits,
		"cache_misses_total":              st.Misses,
		"cache_negative_hits_total":       st.NegativeHits,
		"cache_stale_served_total":        st.StaleHits,
		"cache_evictions_total":           st.Evictions,
		"cache_puts_total":                st.Puts,
		"cache_singleflight_shared_total": st.SharedFlights,
		"cache_prefetch_total":            st.Prefetches,
		"cache_refreshes_total":           st.Refreshes,
		"cache_refresh_fail_total":        st.RefreshFails,
	}
	got := map[string]int64{}
	for _, cv := range reg.Snapshot().Counters {
		got[cv.Name] = cv.Value
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry %v, Stats %+v", got, st)
	}
}

func TestDeterministicCounters(t *testing.T) {
	// The same Lookup/Put sequence yields identical stats — the property
	// the cached-campaign golden test leans on.
	run := func() Stats {
		c, clk := newTestCache(8)
		for i := 0; i < 40; i++ {
			n := dnswire.NewName(fmt.Sprintf("d%d.example.", i%13))
			if get(c, n, dnswire.TypeA) == nil {
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
