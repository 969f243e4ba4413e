package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// lockedLen counts entries the slow way, under every shard lock, and
// checks each shard's list against its index on the way.
func lockedLen(t *testing.T, c *Cache) int {
	t.Helper()
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		listed := 0
		var prev *entry
		for e := s.head; e != nil; prev, e = e, e.next {
			if e.prev != prev || indexed(c, e.key) != e {
				t.Fatalf("shard %d: list and index disagree at %v", i, e.key)
			}
			listed++
		}
		if prev != s.tail || listed != s.index.n {
			t.Fatalf("shard %d: %d listed, %d indexed, tail %v", i, listed, s.index.n, s.tail)
		}
		n += listed
		s.mu.RUnlock()
	}
	return n
}

// TestRunningSizeMatchesShards: Len and the entries gauge come from a
// count kept as entries come and go. Through inserts, replacements,
// evictions and expired entries removed on access it must equal what
// the shards hold, and the gauge must equal Len whenever the cache is
// idle: after a random walk, after entries that expired are looked up
// (the removal the gauge once missed), and after a round of concurrent
// Puts and expiring lookups.
func TestRunningSizeMatchesShards(t *testing.T) {
	c, clock := newTestCache(64)
	reg := obs.NewRegistry()
	c.Instrument(reg, "cache")
	gauge := reg.Gauge("cache_entries")
	idle := func(when string) {
		t.Helper()
		want := lockedLen(t, c)
		if got := c.Len(); got != want || want > 64 {
			t.Fatalf("%s: Len() = %d, shards hold %d (capacity 64)", when, got, want)
		}
		if got := gauge.Value(); int(got) != want {
			t.Fatalf("%s: entries gauge = %v, Len() = %d", when, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 4000; step++ {
		name := dnswire.Name(fmt.Sprintf("n%03d.a.com.", rng.Intn(200)))
		switch rng.Intn(4) {
		case 0, 1:
			c.Put(name, dnswire.TypeA, answer(name, uint32(1+rng.Intn(5))))
		case 2:
			c.Get(name, dnswire.TypeA)
		default:
			clock.Advance(time.Second)
		}
		if step%97 == 0 {
			idle(fmt.Sprintf("step %d", step))
		}
	}
	idle("after the walk")

	c, clock = newTestCache(64)
	reg = obs.NewRegistry()
	c.Instrument(reg, "cache")
	gauge = reg.Gauge("cache_entries")
	for i := 0; i < 10; i++ {
		c.Put(dnswire.Name(fmt.Sprintf("brief%d.a.com.", i)), dnswire.TypeA, answer("brief.a.com.", 1))
	}
	clock.Advance(2 * time.Second)
	for i := 0; i < 10; i++ {
		c.Get(dnswire.Name(fmt.Sprintf("brief%d.a.com.", i)), dnswire.TypeA)
	}
	if c.Len() != 0 {
		t.Fatalf("Len() = %d after every entry expired and was looked up", c.Len())
	}
	idle("after expired entries were looked up")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				name := dnswire.Name(fmt.Sprintf("c%03d.a.com.", (i*7+g*31)%150))
				if i%3 == 2 {
					c.Get(name, dnswire.TypeA)
				} else {
					c.Put(name, dnswire.TypeA, answer(name, uint32(1+i%3)))
				}
				if g == 0 && i%50 == 0 {
					clock.Advance(time.Second)
				}
			}
		}()
	}
	wg.Wait()
	idle("after concurrent Puts and expiring lookups")
}

// TestLookupCopyIsTheCallersOwn (named for the LookupCopy that LookupInto
// replaced): whatever the entry's age, the message LookupInto returns can
// be stamped — header, question and records — without reaching the stored
// answer, so a caller may pool it. Into a nil dst a hit is one
// allocation, copy and answers together; into a dst the caller reuses,
// an aged hit is none, and dst's sections never alias the stored ones.
func TestLookupCopyIsTheCallersOwn(t *testing.T) {
	c, clock := newTestCache(64)
	c.Put("own.a.com.", dnswire.TypeA, answer("own.a.com.", 300))
	stored := c.Get("own.a.com.", dnswire.TypeA) // the entry's own message
	stamp := func(m *dnswire.Message, id uint16) {
		m.Header.ID = id
		m.Questions[0].Name = "OWN.A.COM."
	}
	untouched := func(when string) {
		t.Helper()
		if stored.Header.ID != 1 || stored.Questions[0].Name != "own.a.com." || stored.Answers[0].TTL != 300 {
			t.Fatalf("%s: the stored message changed: %v", when, stored)
		}
	}

	young, outcome := c.LookupInto("own.a.com.", dnswire.TypeA, nil)
	if outcome != Fresh || young == stored {
		t.Fatalf("young hit: outcome %v, same pointer as stored %v", outcome, young == stored)
	}
	if &young.Answers[0] == &stored.Answers[0] {
		t.Fatal("a young hit's copy shares the stored records")
	}
	stamp(young, 0xBEEF)
	young.Answers[0].TTL = 1
	untouched("writing into a young copy")
	if n := testing.AllocsPerRun(200, func() { c.LookupInto("own.a.com.", dnswire.TypeA, nil) }); n != 1 {
		t.Errorf("young single-answer hit: %.1f allocs, want 1 (message and answers in one)", n)
	}

	clock.Advance(10 * time.Second)
	aged, _ := c.LookupInto("own.a.com.", dnswire.TypeA, nil)
	stamp(aged, 0xCAFE)
	untouched("stamping an aged copy")
	if aged.Answers[0].TTL != 290 {
		t.Fatalf("aged hit TTL = %d", aged.Answers[0].TTL)
	}
	if n := testing.AllocsPerRun(200, func() { c.LookupInto("own.a.com.", dnswire.TypeA, nil) }); n != 1 {
		t.Errorf("aged single-answer hit: %.1f allocs, want 1 (message and answers in one)", n)
	}

	var dst dnswire.Message
	if got, _ := c.LookupInto("own.a.com.", dnswire.TypeA, &dst); got != &dst || dst.Answers[0].TTL != 290 {
		t.Fatalf("hit into dst = %p (dst %p), TTL %d", got, &dst, dst.Answers[0].TTL)
	}
	if &dst.Answers[0] == &stored.Answers[0] || &dst.Questions[0] == &stored.Questions[0] {
		t.Fatal("dst's sections alias the stored message")
	}
	stamp(&dst, 0xF00D)
	dst.Answers[0].TTL = 1
	untouched("writing into dst")
	if n := testing.AllocsPerRun(200, func() { c.LookupInto("own.a.com.", dnswire.TypeA, &dst) }); n != 0 {
		t.Errorf("aged hit into a reused dst: %.1f allocs, want 0", n)
	}
	if msg, outcome := c.LookupInto("absent.a.com.", dnswire.TypeA, &dst); msg != nil || outcome != Miss {
		t.Errorf("miss = %v, %v", msg, outcome)
	}
}

// TestKeyNameIsTheStoredSpelling: KeyName hands back the very string the
// entry is keyed by, for the bytes of any name it holds under that type,
// costs nothing and counts nothing.
func TestKeyNameIsTheStoredSpelling(t *testing.T) {
	c, _ := newTestCache(64)
	c.Put("Key.A.com.", dnswire.TypeA, answer("Key.A.com.", 60))
	name := []byte("key.a.com.")
	got := c.KeyName(name, dnswire.TypeA)
	if got != "key.a.com." {
		t.Fatalf("KeyName = %q", got)
	}
	for _, absent := range []struct {
		name string
		typ  dnswire.Type
	}{{"key.a.com.", dnswire.TypeAAAA}, {"Key.A.com.", dnswire.TypeA}, {"other.a.com.", dnswire.TypeA}} {
		if got := c.KeyName([]byte(absent.name), absent.typ); got != "" {
			t.Errorf("KeyName(%s, %v) = %q, want none", absent.name, absent.typ, got)
		}
	}
	if n := testing.AllocsPerRun(200, func() { c.KeyName(name, dnswire.TypeA) }); n != 0 {
		t.Errorf("KeyName: %.1f allocs, want 0", n)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("KeyName was counted: %+v", st)
	}
}

// TestPutCopiesTheMessage: Put keeps a copy, so the caller may edit the
// message it put or hand it to the pool, where the next decode rewrites
// its sections, and the entry still packs to the bytes it was put with.
// Put reports whether it took the answer (a sub-second Get then returns
// the copy), and a longer answer is copied whole.
func TestPutCopiesTheMessage(t *testing.T) {
	c, _ := newTestCache(64)
	other, err := answer("other.a.com.", 7).Pack()
	if err != nil {
		t.Fatal(err)
	}
	long := answer("long.a.com.", 300)
	long.Answers = append(long.Answers, long.Answers[0], long.Answers[0])
	long.Authorities = append(long.Authorities, negative("long.a.com.", 3600, 60).Authorities...)
	for _, msg := range []*dnswire.Message{answer("put.a.com.", 300), negative("gone.a.com.", 3600, 60), long} {
		name := msg.Questions[0].Name
		want, err := msg.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if !c.Put(name, dnswire.TypeA, msg) {
			t.Fatalf("%s: Put refused it", name)
		}
		if stored := c.Get(name, dnswire.TypeA); stored == nil || stored == msg {
			t.Fatalf("%s: Get = %p for the put %p", name, stored, msg)
		}
		msg.Header.ID = 0xBAD
		msg.Questions[0].Name = "edited.a.com."
		for _, rr := range [][]dnswire.ResourceRecord{msg.Answers, msg.Authorities} {
			for i := range rr {
				rr[i].TTL = 1
			}
		}
		dnswire.PutMessage(msg)
		for i := 0; i < 4; i++ {
			if err := dnswire.UnpackInto(other, dnswire.GetMessage()); err != nil {
				t.Fatal(err)
			}
		}
		got, err := c.Get(name, dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the entry changed with the caller's message:\n got %x\nwant %x", name, got, want)
		}
	}
	if c.Put("zero.a.com.", dnswire.TypeA, answer("zero.a.com.", 0)) {
		t.Error("Put took a TTL-0 answer")
	}
}

// TestPutAllocatesTheEntryOnly: the LRU list is threaded through the
// entries, so filling a shard allocates the entry and, as the shard's
// index doubles, its slot array now and then: 1.16 per Put (it was two
// allocations with container/list). An insert into a full shard —
// evicting or replacing — takes over the storage of the entry it
// removes: none. It read one before entries were recycled. The mallocs
// are counted exactly, on one P: testing.AllocsPerRun truncates, so it
// reads 1.16 as 1.
func TestPutAllocatesTheEntryOnly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	msgs := make([]*dnswire.Message, 512)
	names := make([]dnswire.Name, len(msgs))
	for i := range msgs {
		names[i] = dnswire.Name(fmt.Sprintf("p%03d.a.com.", i))
		msgs[i] = answer(names[i], 60)
	}
	const puts = 400
	for _, row := range []struct {
		what     string
		capacity int
		full     bool
		max      float64
	}{
		{"a fill", 4096, false, 1.2},
		{"an insert into a full shard", 64, true, 0},
	} {
		c, _ := newTestCache(row.capacity)
		if row.full {
			for i := range msgs {
				c.Put(names[i], dnswire.TypeA, msgs[i])
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < puts; i++ {
			c.Put(names[i], dnswire.TypeA, msgs[i])
		}
		runtime.ReadMemStats(&after)
		n := float64(after.Mallocs-before.Mallocs) / puts
		t.Logf("Put, %s: %.3f allocs", row.what, n)
		if n > row.max {
			t.Errorf("Put, %s: %.3f allocs, want at most %.1f", row.what, n, row.max)
		}
		if st := c.Stats(); (st.Evictions == 0) == row.full {
			t.Errorf("Put, %s: %d evictions", row.what, st.Evictions)
		}
	}
}

// TestDoAloneAllocatesNothing: the channel waiters park on is made by
// the first of them, and a flight nobody joined goes back to a pool once
// its leader is done, so a Do nobody joins — nearly every miss — costs
// nothing. It read two, then one (the flight).
func TestDoAloneAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, _ := newTestCache(64)
	msg := answer("alone.a.com.", 60)
	fn := func() (*dnswire.Message, error) { return msg, nil }
	ctx := context.Background()
	n := testing.AllocsPerRun(400, func() {
		if got, shared, err := c.Do(ctx, "alone.a.com.", dnswire.TypeA, fn); got != msg || shared || err != nil {
			t.Fatalf("Do = %v, %v, %v", got, shared, err)
		}
	})
	if n != 0 {
		t.Errorf("Do with no waiter: %.1f allocs, want 0", n)
	}
}

// TestRecycledFlightsKeepTheirResults: joined flights and lone ones run
// side by side for many rounds, so flights recycled by lone leaders are
// reused by leaders that others join and the other way round. Every
// caller gets its own key's result — a flight recycled while a waiter
// still held it would hand that waiter another key's result, or none —
// and SharedFlights counts exactly the waiters. A leader gets fn's own
// message and overwrites it at once; the waiters' copy must still hold
// the answer afterwards. Run it under -race with -count=20.
func TestRecycledFlightsKeepTheirResults(t *testing.T) {
	const (
		rounds  = 20
		joined  = 4 // keys with a leader held in fn while waiters join
		waiters = 3 // per joined key
		lone    = 4 // keys only ever asked for by one goroutine
		loneDos = 50
	)
	c, _ := newTestCache(64)
	ctx := context.Background()
	key := func(kind string, i int) dnswire.Name { return dnswire.Name(fmt.Sprintf("%s%d.a.com.", kind, i)) }
	wire := make(map[dnswire.Name][]byte)
	for _, kind := range []string{"j", "l"} {
		for i := 0; i < joined+lone; i++ {
			b, err := answer(key(kind, i), 60).Pack()
			if err != nil {
				t.Fatal(err)
			}
			wire[key(kind, i)] = b
		}
	}
	// Odd keys fail: an error is a result the waiters must share too.
	result := func(name dnswire.Name) (*dnswire.Message, error) {
		if name[1] == '1' || name[1] == '3' {
			return nil, errors.New(string(name))
		}
		return answer(name, 60), nil
	}
	check := func(name dnswire.Name, got *dnswire.Message, err error) {
		t.Helper()
		if _, wantErr := result(name); wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() || got != nil {
				t.Errorf("%s: got %v, %v; want %v", name, got, err, wantErr)
			}
			return
		}
		if err != nil || got == nil {
			t.Errorf("%s: got %v, %v", name, got, err)
			return
		}
		if b, err := got.Pack(); err != nil || !bytes.Equal(b, wire[name]) {
			t.Errorf("%s: answered %v", name, got)
		}
	}
	overwrite := func(m *dnswire.Message) {
		if m != nil {
			m.Header.ID = 0xBAD
			m.Questions[0].Name = "overwritten.a.com."
			m.Answers[0].TTL = 1
		}
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		release := make(chan struct{})
		var waited [joined][waiters]*dnswire.Message
		for i := 0; i < joined; i++ {
			name := key("j", i)
			entered := make(chan struct{})
			wg.Add(1 + waiters)
			go func() {
				defer wg.Done()
				var mine *dnswire.Message
				got, shared, err := c.Do(ctx, name, dnswire.TypeA, func() (*dnswire.Message, error) {
					close(entered)
					<-release
					m, err := result(name)
					mine = m
					return m, err
				})
				if shared || got != mine {
					t.Errorf("%s: the leader got %p (shared %v), not fn's %p", name, got, shared, mine)
				}
				check(name, got, err)
				overwrite(got)
			}()
			<-entered
			for w := 0; w < waiters; w++ {
				go func() {
					defer wg.Done()
					got, shared, err := c.Do(ctx, name, dnswire.TypeA, func() (*dnswire.Message, error) {
						t.Errorf("%s: a waiter ran fn while the leader was in flight", name)
						return nil, nil
					})
					if !shared {
						t.Errorf("%s: a waiter led its own flight", name)
					}
					check(name, got, err)
					waited[i][w] = got
				}()
			}
		}
		for i := 0; i < lone; i++ {
			name := key("l", i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < loneDos; n++ {
					got, shared, err := c.Do(ctx, name, dnswire.TypeA, func() (*dnswire.Message, error) { return result(name) })
					if shared {
						t.Errorf("%s: a lone caller joined a flight", name)
					}
					check(name, got, err)
					overwrite(got)
				}
			}()
		}
		want := int64((round + 1) * joined * waiters)
		for deadline := time.Now().Add(10 * time.Second); c.Stats().SharedFlights < want; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: SharedFlights = %d, want %d", round, c.Stats().SharedFlights, want)
			}
		}
		close(release)
		wg.Wait()
		if got := c.Stats().SharedFlights; got != want {
			t.Fatalf("round %d: SharedFlights = %d, want exactly %d", round, got, want)
		}
		// Every leader has overwritten its answer by now.
		for i := range waited {
			for _, got := range waited[i] {
				if _, err := result(key("j", i)); err == nil {
					check(key("j", i), got, nil)
				}
			}
		}
	}
}
