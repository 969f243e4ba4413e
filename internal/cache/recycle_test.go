package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// recycleTTL is the TTL of every answer the recycling soak puts. On a
// clock that moves in 3 s steps a fresh hit's aged TTL is 31-3k, never
// staleTTLCap, so a hit's answer tells a fresh hit from a stale one.
const recycleTTL = 31

// recycleAnswer is key i's answer: its own name and its own address.
func recycleAnswer(name dnswire.Name, i int) *dnswire.Message {
	m := answer(name, recycleTTL)
	m.Answers[0].Data = dnswire.ARecord{Addr: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})}
	return m
}

// TestRecycledEntriesKeepTheirAnswers is the -race soak for recycled
// slots. A tiny cache (2 shards of 8) on a fake clock churns through
// evictions and replacements while goroutines look keys up with
// LookupInto into storage they reuse, with Lookup (holding the answer a
// while), with KeyName, and put answers, and the hits launch stale and
// prefetch refreshes that fail now and then. Each clock step, every
// goroutine but the slow putter does 16 operations. Every answer must
// carry its own key's name and address whatever storage it was copied
// from, and the counters must be exact: Hits, StaleHits and Misses
// against what the goroutines saw, Puts against their Puts and the
// refreshes, and Evictions over a closing run of inserts. Run it under
// -race with -count=20.
func TestRecycledEntriesKeepTheirAnswers(t *testing.T) {
	const keys = 24
	c, clk := newStaleCache(Config{
		MaxEntries:        16,
		StaleTTL:          30 * time.Second,
		PrefetchThreshold: 10 * time.Second,
	})
	if len(c.shards) != 2 || c.shards[0].max != 8 {
		t.Fatalf("%d shards of %d, want 2 of 8", len(c.shards), c.shards[0].max)
	}
	names := make([]dnswire.Name, keys)
	index := make(map[dnswire.Name]int, keys)
	for i := range names {
		names[i] = dnswire.Name(fmt.Sprintf("r%02d.recycle.example.", i))
		index[names[i]] = i
	}
	var refreshCalls atomic.Int64
	c.SetRefresher(func(_ context.Context, name dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		if refreshCalls.Add(1)%4 == 0 {
			return nil, errors.New("flaky upstream")
		}
		return recycleAnswer(name, index[name]), nil
	})

	// checkAnswer fails unless m answers name: its question and its one
	// record carry name and name's address.
	checkAnswer := func(how string, name dnswire.Name, m *dnswire.Message) bool {
		want := recycleAnswer(name, index[name]).Answers[0]
		if len(m.Questions) != 1 || m.Questions[0].Name != name || len(m.Answers) != 1 ||
			m.Answers[0].Name != name || m.Answers[0].Data != want.Data {
			t.Errorf("%s %s answered %v", how, name, m)
			return false
		}
		return true
	}
	type tally struct{ fresh, stale, miss, puts int64 }
	count := func(tl *tally, outcome Outcome) {
		switch outcome {
		case Fresh:
			tl.fresh++
		case Stale:
			tl.stale++
		default:
			tl.miss++
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	tallies := make([]tally, 6)
	p := newPacer(len(tallies)-1, 16) // every goroutine but the slow putter, the last
	worker := func(g int, step func(rng *rand.Rand, tl *tally) bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g < len(p.ops) {
				defer p.Quit(g)
			}
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !step(rng, &tallies[g]) {
					return
				}
				if g < len(p.ops) {
					p.Did(g)
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		var dst dnswire.Message
		worker(g, func(rng *rand.Rand, tl *tally) bool {
			name := names[rng.Intn(keys)]
			m, outcome := c.LookupInto(name, dnswire.TypeA, &dst)
			count(tl, outcome)
			if outcome == Miss {
				return m == nil
			}
			if m != &dst {
				t.Errorf("LookupInto %s answered in %p, not dst %p", name, m, &dst)
				return false
			}
			return checkAnswer("LookupInto", name, m) && (outcome == Stale) == (m.Answers[0].TTL == staleTTLCap)
		})
	}
	worker(2, func(rng *rand.Rand, tl *tally) bool {
		name := names[rng.Intn(keys)]
		m, outcome := c.Lookup(name, dnswire.TypeA)
		count(tl, outcome)
		if outcome == Miss {
			return m == nil
		}
		if !checkAnswer("Lookup", name, m) {
			return false
		}
		runtime.Gosched() // hold the answer while the others churn
		return checkAnswer("Lookup, held,", name, m) && (outcome == Stale) == (m.Answers[0].TTL == staleTTLCap)
	})
	worker(3, func(rng *rand.Rand, _ *tally) bool {
		name := names[rng.Intn(keys)]
		if got := c.KeyName([]byte(name), dnswire.TypeA); got != "" && got != name {
			t.Errorf("KeyName(%s) = %s", name, got)
			return false
		}
		return true
	})
	// One goroutine churns the first half of the keys as fast as the clock
	// lets it; the other puts the second half once per two clock steps, so
	// that those entries live to go stale.
	for g := 4; g < 6; g++ {
		worker(g, func(rng *rand.Rand, tl *tally) bool {
			if g == 5 {
				next := p.steps.Load() + 2
				waitUntil(func() bool { return p.steps.Load() >= next || p.done.Load() })
			}
			i := (g-4)*keys/2 + rng.Intn(keys/2)
			if !c.Put(names[i], dnswire.TypeA, recycleAnswer(names[i], i)) {
				t.Errorf("Put refused %s", names[i])
				return false
			}
			tl.puts++
			return true
		})
	}
	// Run 100 clock steps, and on until every path has been taken a few
	// times.
	covered := func() bool {
		st := c.Stats()
		return st.Evictions >= 10 && st.StaleHits >= 10 && st.Prefetches >= 10 && st.Refreshes >= 10 && st.RefreshFails >= 3
	}
	for step := 0; step < 100 || !covered() && step < 2000; step++ {
		p.Step(func() { clk.Advance(3 * time.Second) })
	}
	close(stop)
	p.Stop()
	wg.Wait()
	c.Wait()

	var saw tally
	for _, tl := range tallies {
		saw.fresh, saw.stale, saw.miss, saw.puts = saw.fresh+tl.fresh, saw.stale+tl.stale, saw.miss+tl.miss, saw.puts+tl.puts
	}
	st := c.Stats()
	if st.Hits != saw.fresh || st.StaleHits != saw.stale || st.Misses != saw.miss {
		t.Errorf("Hits %d, StaleHits %d, Misses %d; the goroutines saw %d fresh, %d stale, %d misses",
			st.Hits, st.StaleHits, st.Misses, saw.fresh, saw.stale, saw.miss)
	}
	if st.Puts != saw.puts+st.Refreshes {
		t.Errorf("Puts %d, want the goroutines' %d plus %d refreshes", st.Puts, saw.puts, st.Refreshes)
	}
	if st.Evictions == 0 || st.StaleHits == 0 || st.Prefetches == 0 || st.Refreshes == 0 || st.RefreshFails == 0 {
		t.Errorf("the soak missed a path: %+v", st)
	}
	if got := lockedLen(t, c); got != c.Len() {
		t.Errorf("Len() = %d, shards hold %d", c.Len(), got)
	}

	// Close with inserts of keys never seen: each evicts exactly when its
	// shard is full (the newcomer itself when every entry there was
	// referenced), and every key left holds its own answer.
	room := make(map[*shard]int)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		room[s] = s.max - s.index.n
		s.mu.RUnlock()
	}
	evictions, want := st.Evictions, int64(0)
	for i := 0; i < 24; i++ {
		name := dnswire.Name(fmt.Sprintf("tail%02d.recycle.example.", i))
		index[name] = keys + i
		if s := c.shardFor(key{name, dnswire.TypeA}); room[s] > 0 {
			room[s]--
		} else {
			want++
		}
		c.Put(name, dnswire.TypeA, recycleAnswer(name, keys+i))
	}
	if got := c.Stats().Evictions - evictions; got != want {
		t.Errorf("the closing inserts evicted %d entries, want %d", got, want)
	}
	for name := range index {
		if c.KeyName([]byte(name), dnswire.TypeA) == "" {
			continue
		}
		if m, _ := c.LookupInto(name, dnswire.TypeA, nil); m == nil || !checkAnswer("at rest", name, m) {
			t.Errorf("%s: held, but answers %v", name, m)
		}
	}
}

// TestRefreshFailureAfterRecycling: a refresh that fails stamps its
// backoff on its key's entry, and only that. Here its entry is replaced
// and then evicted while the refresh is in flight, and another key's
// answer takes over the storage; when the refresh fails, that other key
// must still refresh at once, without the failed key's backoff.
func TestRefreshFailureAfterRecycling(t *testing.T) {
	c, clk := newStaleCache(Config{MaxEntries: 8, StaleTTL: time.Hour})
	const victim = dnswire.Name("victim.example.")
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	c.SetRefresher(func(_ context.Context, name dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		if name == victim {
			close(entered)
			<-release
			return nil, errors.New("upstream dead")
		}
		calls.Add(1)
		return answer(name, 60), nil
	})
	c.Put(victim, dnswire.TypeA, answer(victim, 1))
	clk.Advance(2 * time.Second)
	if _, outcome := c.Lookup(victim, dnswire.TypeA); outcome != Stale {
		t.Fatalf("outcome = %v, want Stale", outcome)
	}
	<-entered

	// Replace the victim's entry, then evict it: the last insert takes
	// over its storage.
	c.Put(victim, dnswire.TypeA, answer(victim, 1))
	replaced := indexed(c, key{victim, dnswire.TypeA})
	others := make([]dnswire.Name, 8)
	for i := range others {
		others[i] = dnswire.Name(fmt.Sprintf("other%d.example.", i))
		c.Put(others[i], dnswire.TypeA, answer(others[i], 1))
	}
	if c.KeyName([]byte(victim), dnswire.TypeA) != "" {
		t.Fatal("the victim's entry was not evicted")
	}
	if indexed(c, key{others[7], dnswire.TypeA}) != replaced {
		t.Fatal("the last insert did not take over the victim's storage")
	}

	clk.Advance(2 * time.Second) // every other key is stale
	close(release)
	c.Wait()
	if st := c.Stats(); st.RefreshFails != 1 {
		t.Fatalf("RefreshFails = %d, want 1", st.RefreshFails)
	}
	for _, name := range others {
		if _, outcome := c.Lookup(name, dnswire.TypeA); outcome != Stale {
			t.Fatalf("%s: outcome = %v, want Stale", name, outcome)
		}
	}
	c.Wait()
	if got := calls.Load(); got != int64(len(others)) {
		t.Errorf("%d of %d stale keys refreshed: a failed key's backoff landed on another key", got, len(others))
	}
}

// TestSlabUnderReaders is the -race soak for one shard's slab. While
// goroutines look its keys up with LookupInto into a message they reuse
// and with KeyName, Puts grow the slab from empty through two doublings
// to the shard's capacity, then churn it: replacements, evictions, and
// dead entries removed on lookup, whose slots the next inserts take from
// the free list, with one-record and three-record answers taking turns
// in the slots. Every hit must pack to the bytes its Put stored, its
// TTL aged by no more than the clock moved. Run it under -race with
// -count=20.
func TestSlabUnderReaders(t *testing.T) {
	c, clk := newTestCache(512) // 16 shards of 32
	s := c.shardFor(key{"s000.slab.example.", dnswire.TypeA})
	var names []dnswire.Name
	for i := 0; len(names) < 2*s.max; i++ {
		if name := dnswire.Name(fmt.Sprintf("s%03d.slab.example.", i)); c.shardFor(key{name, dnswire.TypeA}) == s {
			names = append(names, name)
		}
	}
	// version is key i's answer at version v with the given TTL; an odd
	// version is put with TTL 1 to die, an even one with TTL 3600, and
	// every fourth has three records, so that slots pass between one-record
	// answers and longer ones.
	putTTL := func(v int) uint32 { return uint32(3600 - v%2*3599) }
	version := func(i, v int, ttl uint32) *dnswire.Message {
		m := answer(names[i], ttl)
		m.Answers[0].Data = dnswire.ARecord{Addr: netip.AddrFrom4([4]byte{10, byte(i), byte(v >> 8), byte(v)})}
		if v%4 == 2 {
			m.Answers = append(m.Answers, m.Answers[0], m.Answers[0])
		}
		return m
	}
	latest := make([]atomic.Int64, len(names)) // each key's last version put
	var aged atomic.Uint32                     // seconds the clock has moved
	check := func(i int, m *dnswire.Message) bool {
		if len(m.Answers) == 0 {
			t.Errorf("%s answered %v", names[i], m)
			return false
		}
		a, ok := m.Answers[0].Data.(dnswire.ARecord)
		if !ok {
			t.Errorf("%s answered %v", names[i], m)
			return false
		}
		b := a.Addr.As4()
		v, got := int(b[2])<<8|int(b[3]), m.Answers[0].TTL
		want := version(i, v, got)
		if int(b[1]) != i || int64(v) > latest[i].Load() || got > putTTL(v) || got+aged.Load() < putTTL(v) {
			t.Errorf("%s answered version %d of key %d with TTL %d", names[i], v, b[1], got)
			return false
		}
		gotWire, err := m.Pack()
		wantWire, _ := want.Pack()
		if err != nil || !bytes.Equal(gotWire, wantWire) {
			t.Errorf("%s: hit packs to\n%x, its Put stored\n%x", names[i], gotWire, wantWire)
			return false
		}
		return true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var dst dnswire.Message
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(len(names))
				if g == 2 {
					if got := c.KeyName([]byte(names[i]), dnswire.TypeA); got != "" && got != names[i] {
						t.Errorf("KeyName(%s) = %s", names[i], got)
						return
					}
					continue
				}
				if m, _ := c.LookupInto(names[i], dnswire.TypeA, &dst); m != nil && !check(i, m) {
					return
				}
			}
		}()
	}

	put := func(i, v int) {
		latest[i].Store(int64(v))
		if !c.Put(names[i], dnswire.TypeA, version(i, v, putTTL(v))) {
			t.Fatalf("Put refused %s", names[i])
		}
	}
	// Grow: one insert at a time from empty to the shard's capacity.
	var caps []int
	for i := 0; i < s.max; i++ {
		put(i, 0)
		s.mu.RLock()
		if n := cap(s.slab); len(caps) == 0 || caps[len(caps)-1] != n {
			caps = append(caps, n)
		}
		s.mu.RUnlock()
	}
	if want := []int{minSlab + 1, 2*minSlab + 1, 4*minSlab + 1}; !slices.Equal(caps, want) || s.max != 4*minSlab {
		t.Fatalf("slab capacities %v for %d entries, want %v", caps, s.max, want)
	}
	// Churn: replace, evict, and let entries die and be removed on lookup.
	rng := rand.New(rand.NewSource(63))
	st := c.Stats()
	for round := 1; round <= 200; round++ {
		for n := 0; n < 8; n++ {
			put(rng.Intn(len(names)), 2*round) // a replacement or an insert that evicts
		}
		dying := rng.Intn(len(names))
		put(dying, 2*round+1)
		aged.Add(1) // before the clock moves: a reader's bound on its hit's age
		clk.Advance(time.Second)
		if m, outcome := c.Lookup(names[dying], dnswire.TypeA); m != nil || outcome != Miss {
			t.Fatalf("round %d: %s outlived its TTL", round, names[dying])
		}
		if c.KeyName([]byte(names[dying]), dnswire.TypeA) != "" {
			t.Fatalf("round %d: %s died but was not removed", round, names[dying])
		}
	}
	close(stop)
	wg.Wait()
	if end := c.Stats(); end.Evictions == st.Evictions {
		t.Errorf("the churn evicted nothing: %+v", end)
	}
	s.mu.RLock()
	checkSlots(t, s)
	if len(s.slab) != s.max+1 {
		t.Errorf("slab of %d slots, want the %d entries and the anchor", len(s.slab), s.max)
	}
	s.mu.RUnlock()
}
