package cache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// recycleTTL is the TTL of every answer the recycling soak puts. On a
// clock that moves in 3 s steps a fresh hit's aged TTL is 31-3k, never
// staleTTLCap, so a Get's answer tells a fresh hit from a stale one.
const recycleTTL = 31

// recycleAnswer is key i's answer: its own name and its own address.
func recycleAnswer(name dnswire.Name, i int) *dnswire.Message {
	m := answer(name, recycleTTL)
	m.Answers[0].Data = dnswire.ARecord{Addr: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})}
	return m
}

// TestRecycledEntriesKeepTheirAnswers is the -race soak for recycled
// entries. A tiny cache (2 shards of 8) on a fake clock churns through
// evictions and replacements while goroutines look keys up with
// LookupInto into storage they reuse, with Get (holding the answer a
// while, as a caller of the zero-copy hit may), with KeyName, and put
// answers, and the hits launch stale and prefetch refreshes that fail
// now and then. Every answer must carry its own key's name and address
// whatever storage it was copied from, and the counters must be exact:
// Hits, StaleHits and Misses against what the goroutines saw, Puts
// against their Puts and the refreshes, and Evictions over a closing
// run of inserts. Run it under -race with -count=20.
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
	worker := func(g int, step func(rng *rand.Rand, tl *tally) bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
		m := c.Get(name, dnswire.TypeA)
		if m == nil {
			tl.miss++
			return true
		}
		if m.Answers[0].TTL == staleTTLCap {
			tl.stale++
		} else {
			tl.fresh++
		}
		if !checkAnswer("Get", name, m) {
			return false
		}
		runtime.Gosched() // hold the answer while the others churn
		return checkAnswer("Get, held,", name, m)
	})
	worker(3, func(rng *rand.Rand, _ *tally) bool {
		name := names[rng.Intn(keys)]
		if got := c.KeyName([]byte(name), dnswire.TypeA); got != "" && got != name {
			t.Errorf("KeyName(%s) = %s", name, got)
			return false
		}
		return true
	})
	// One goroutine churns the first half of the keys as fast as it can;
	// the other puts the second half about once per two clock steps, so
	// that those entries live to go stale.
	for g := 4; g < 6; g++ {
		worker(g, func(rng *rand.Rand, tl *tally) bool {
			i := (g-4)*keys/2 + rng.Intn(keys/2)
			if !c.Put(names[i], dnswire.TypeA, recycleAnswer(names[i], i)) {
				t.Errorf("Put refused %s", names[i])
				return false
			}
			tl.puts++
			if g == 5 {
				time.Sleep(2 * time.Millisecond)
			}
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
		time.Sleep(time.Millisecond)
		clk.Advance(3 * time.Second)
	}
	close(stop)
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
