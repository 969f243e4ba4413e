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
	"unsafe"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// lockedLen counts entries the slow way, under every shard lock, and
// checks each shard's list against its map on the way.
func lockedLen(t *testing.T, c *Cache) int {
	t.Helper()
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		listed := 0
		var prev *entry
		for e := s.head; e != nil; prev, e = e, e.next {
			if e.prev != prev || s.entries[e.key] != e {
				t.Fatalf("shard %d: list and map disagree at %v", i, e.key)
			}
			listed++
		}
		if prev != s.tail || listed != len(s.entries) {
			t.Fatalf("shard %d: %d listed, %d mapped, tail %v", i, listed, len(s.entries), s.tail)
		}
		n += listed
		s.mu.RUnlock()
	}
	return n
}

// TestRunningSizeMatchesShards: Len and the entries gauge come from a
// count kept as entries come and go. Through inserts, replacements,
// evictions and expired entries removed on access it must equal what
// the shards hold.
func TestRunningSizeMatchesShards(t *testing.T) {
	c, clock := newTestCache(64)
	reg := obs.NewRegistry()
	c.Instrument(reg, "cache")
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
			if got, want := c.Len(), lockedLen(t, c); got != want {
				t.Fatalf("step %d: Len() = %d, shards hold %d", step, got, want)
			}
		}
	}
	want := lockedLen(t, c)
	if got := c.Len(); got != want || want > 64 {
		t.Fatalf("Len() = %d, shards hold %d (capacity 64)", got, want)
	}
	c.Put("last.a.com.", dnswire.TypeA, answer("last.a.com.", 60))
	if got := reg.Gauge("cache_entries").Value(); int(got) != c.Len() {
		t.Errorf("entries gauge = %v, Len() = %d", got, c.Len())
	}
}

// TestLookupCopyIsTheCallersOwn (named for the LookupCopy that LookupInto
// replaced): whatever the entry's age, the message LookupInto returns can
// be stamped — header, question and records — without reaching the stored
// answer, so a caller may pool it. Into a nil dst a hit is one
// allocation, copy and answers together; into a dst the caller reuses,
// an aged hit is none, and dst's sections never alias the stored ones.
func TestLookupCopyIsTheCallersOwn(t *testing.T) {
	c, clock := newTestCache(64)
	stored := c.Put("own.a.com.", dnswire.TypeA, answer("own.a.com.", 300))
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
// Put returns that copy — the message hits share — or nil for an answer
// it refuses; a longer answer is copied whole.
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
		stored := c.Put(name, dnswire.TypeA, msg)
		if stored == nil || stored == msg || c.Get(name, dnswire.TypeA) != stored {
			t.Fatalf("%s: Put = %p for %p, Get = %p", name, stored, msg, c.Get(name, dnswire.TypeA))
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
	if got := c.Put("zero.a.com.", dnswire.TypeA, answer("zero.a.com.", 0)); got != nil {
		t.Errorf("Put of a TTL-0 answer = %v, want nil", got)
	}
}

// TestEntryFitsIn256Bytes: the entry, its message, question and one
// record inline, is one 256-byte size class; a field that pushes it over
// costs every cached answer the next class up.
func TestEntryFitsIn256Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 256 {
		t.Errorf("entry is %d bytes, want <= 256", n)
	}
}

// TestPutAllocatesTheEntryOnly: the LRU list is threaded through the
// entries, so an insert into a full shard — evicting — is one
// allocation. It was two with container/list.
func TestPutAllocatesTheEntryOnly(t *testing.T) {
	c, _ := newTestCache(64)
	msgs := make([]*dnswire.Message, 512)
	names := make([]dnswire.Name, len(msgs))
	for i := range msgs {
		names[i] = dnswire.Name(fmt.Sprintf("p%03d.a.com.", i))
		msgs[i] = answer(names[i], 60)
		c.Put(names[i], dnswire.TypeA, msgs[i])
	}
	i := 0
	n := testing.AllocsPerRun(400, func() {
		c.Put(names[i%len(names)], dnswire.TypeA, msgs[i%len(names)])
		i++
	})
	if n > 1 {
		t.Errorf("Put: %.1f allocs, want 1", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Error("the measured inserts never evicted")
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
// and SharedFlights counts exactly the waiters. Run it under -race with
// -count=20.
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
	msgs := make(map[dnswire.Name]*dnswire.Message)
	for i := 0; i < joined; i++ {
		msgs[key("j", i)] = answer(key("j", i), 60)
	}
	for i := 0; i < lone; i++ {
		msgs[key("l", i)] = answer(key("l", i), 60)
	}
	// Odd keys fail: an error is a result the waiters must share too.
	result := func(name dnswire.Name) (*dnswire.Message, error) {
		if name[1] == '1' || name[1] == '3' {
			return nil, errors.New(string(name))
		}
		return msgs[name], nil
	}
	check := func(name dnswire.Name, got *dnswire.Message, err error) {
		want, wantErr := result(name)
		if got != want || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("%s: got %v, %v; want %v, %v", name, got, err, want, wantErr)
		}
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		release := make(chan struct{})
		for i := 0; i < joined; i++ {
			name := key("j", i)
			entered := make(chan struct{})
			wg.Add(1 + waiters)
			go func() {
				defer wg.Done()
				got, shared, err := c.Do(ctx, name, dnswire.TypeA, func() (*dnswire.Message, error) {
					close(entered)
					<-release
					return result(name)
				})
				if shared {
					t.Errorf("%s: the leader reported a shared flight", name)
				}
				check(name, got, err)
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
	}
}
