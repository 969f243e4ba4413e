package cache

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dnswire"
)

// indexed is k's slot as its shard's index finds it, or 0.
func indexed(c *Cache, k key) int32 {
	return find(c.shardFor(k), c.hashOf(k), k.name, k.typ)
}

// checkShard holds s to ref, the slots it must hold by key, and to its
// own invariants. The index is no more than half full, counts its
// occupied slots, and reaches every entry from its home slot without
// crossing an empty one. Every slab slot but the anchor is either live —
// on the LRU list and indexed under its key — or on the free list, never
// both, and the list is as long as the index counts.
func checkShard(t *testing.T, s *shard, ref map[key]int32, universe []key, hashes map[key]uint32) {
	t.Helper()
	x := &s.index
	if x.n != len(ref) {
		t.Fatalf("index counts %d entries, the reference holds %d", x.n, len(ref))
	}
	if 2*x.n > len(x.slots) {
		t.Fatalf("%d entries in %d slots: more than half full", x.n, len(x.slots))
	}
	for _, k := range universe {
		if got, want := find(s, hashes[k], k.name, k.typ), ref[k]; got != want {
			t.Fatalf("find %v = %d, want %d", k, got, want)
		}
	}
	occupied := 0
	mask := uint32(len(x.slots) - 1)
	for i, v := range x.slots {
		if v == 0 {
			continue
		}
		occupied++
		e := &s.slab[v]
		for j := e.hash & mask; j != uint32(i); j = (j + 1) & mask {
			if x.slots[j] == 0 {
				t.Fatalf("%v in slot %d is cut off from its home %d by the empty slot %d", e.key, i, e.hash&mask, j)
			}
		}
	}
	if occupied != x.n {
		t.Fatalf("%d slots occupied, index counts %d", occupied, x.n)
	}
	checkSlots(t, s)
}

// checkSlots holds s's slab to its invariants: no more than max entries
// and the anchor; every slot but the anchor either live — on the LRU
// list, its links agreeing, and indexed under its key — or on the free
// list, never both; and the list as long as the index counts. The caller
// holds s.mu, or is s's only user.
func checkSlots(t *testing.T, s *shard) {
	t.Helper()
	if len(s.slab) > s.max+1 {
		t.Fatalf("slab of %d slots for %d entries and the anchor", len(s.slab), s.max)
	}
	state := make([]string, len(s.slab))
	listed := 0
	for prev, i := int32(0), s.head(); i != 0; prev, i = i, s.slab[i].next {
		if state[i] != "" || s.slab[i].prev != prev {
			t.Fatalf("slot %d: the LRU list loops or its links disagree", i)
		}
		if e := &s.slab[i]; find(s, e.hash, e.key.name, e.key.typ) != i {
			t.Fatalf("slot %d is listed under %v, which the index does not find there", i, e.key)
		}
		state[i] = "live"
		listed++
	}
	if listed != s.index.n {
		t.Fatalf("%d entries listed, %d indexed", listed, s.index.n)
	}
	for i := s.free; i != 0; i = s.slab[i].next {
		if state[i] != "" {
			t.Fatalf("slot %d is free and %s", i, state[i])
		}
		state[i] = "free"
	}
	for i := 1; i < len(s.slab); i++ {
		if state[i] == "" {
			t.Fatalf("slot %d is neither live nor free", i)
		}
	}
}

// head is the first slot of s's LRU list, 0 when it is empty.
func (s *shard) head() int32 {
	if len(s.slab) == 0 {
		return 0
	}
	return s.slab[0].next
}

// FuzzShardIndex drives a shard's slab, index and lists through inserts,
// replacements and removals over 16 keys against a map, as Put and a
// dead entry's removal do. The input's first 16 bytes are the keys' slot
// hashes, so that keys share homes and clusters wrap past the table's
// end; each later byte is one operation on one key
// (testdata/fuzz/FuzzShardIndex holds the seed corpus).
func FuzzShardIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const keys = 16
		if len(data) < keys {
			return
		}
		universe := make([]key, keys)
		hashes := make(map[key]uint32, keys)
		for i := range universe {
			universe[i] = key{dnswire.Name(fmt.Sprintf("k%02d.a.com.", i)), dnswire.TypeA}
			hashes[universe[i]] = uint32(data[i])
		}
		s := &shard{max: keys}
		ref := make(map[key]int32)
		for _, op := range data[keys:] {
			k := universe[op%keys]
			old := ref[k]
			switch (op / keys) % 3 {
			case 0, 1: // insert, or replace what the key holds in its slot
				i := old
				if old != 0 {
					s.removeLocked(old)
				} else {
					i = s.alloc()
				}
				s.slab[i] = entry{key: k, hash: hashes[k]}
				s.pushFront(i)
				s.index.insert(s.slab, i)
				ref[k] = i
			case 2: // a dead entry's removal
				if old != 0 {
					s.removeLocked(old)
					s.release(old)
					delete(ref, k)
				}
			}
			checkShard(t, s, ref, universe, hashes)
		}
	})
}

// TestShardIndexProbeLengths: a full default shard of the benchmark's
// fill names (fNNNNNNN.fill.a.com.) finds an entry in at most 2 probes
// on average and 64 at worst.
func TestShardIndexProbeLengths(t *testing.T) {
	c := New(Config{})
	s := &c.shards[0]
	for i := 0; s.index.n < s.max; i++ {
		name := dnswire.Name(fmt.Sprintf("f%07d.fill.a.com.", i))
		if c.shardFor(key{name, dnswire.TypeA}) == s {
			c.Put(name, dnswire.TypeA, answer(name, 300))
		}
	}
	mask := uint32(len(s.index.slots) - 1)
	total, longest := 0, 0
	for i, v := range s.index.slots {
		if v != 0 {
			probes := int((uint32(i)-s.slab[v].hash)&mask) + 1
			total += probes
			longest = max(longest, probes)
		}
	}
	mean := float64(total) / float64(s.index.n)
	t.Logf("%d entries in %d slots: mean probe %.2f, longest %d", s.index.n, len(s.index.slots), mean, longest)
	if mean > 2 || longest > 64 {
		t.Errorf("mean probe %.2f (want <= 2), longest %d (want <= 64)", mean, longest)
	}
}

// TestCacheIsDeterministic: the slot hash's seed decides where an entry
// sits in its shard's index and nothing else. Two caches with different
// seeds, given one sequence of Put, Lookup and LookupInto that overflows
// their capacity, end with the same keys in the same LRU order and equal
// Stats.
func TestCacheIsDeterministic(t *testing.T) {
	a, clkA := newTestCache(64)
	b, clkB := newTestCache(64)
	if a.seed == b.seed {
		t.Fatal("two caches share a slot-hash seed")
	}
	rng := rand.New(rand.NewSource(52))
	var dst dnswire.Message
	for i := 0; i < 4000; i++ {
		name := dnswire.Name(fmt.Sprintf("d%03d.example.", rng.Intn(300)))
		op := rng.Intn(4)
		for _, c := range []*Cache{a, b} {
			switch op {
			case 0:
				c.Put(name, dnswire.TypeA, answer(name, uint32(1+i%7)))
			case 1:
				c.Lookup(name, dnswire.TypeA)
			case 2:
				c.LookupInto(name, dnswire.TypeA, &dst)
			case 3:
				c.Put(name, dnswire.TypeAAAA, negative(name, 60, 3))
			}
		}
		if i%97 == 0 {
			clkA.Advance(time.Second)
			clkB.Advance(time.Second)
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Errorf("Stats differ: %+v vs %+v", sa, sb)
	}
	if a.Stats().Evictions == 0 {
		t.Error("the sequence never overflowed the capacity")
	}
	for i := range a.shards {
		x, y := &a.shards[i], &b.shards[i]
		e, f := x.head(), y.head()
		for ; e != 0 && f != 0; e, f = x.slab[e].next, y.slab[f].next {
			if x.slab[e].key != y.slab[f].key {
				t.Fatalf("shard %d: LRU order differs: %v vs %v", i, x.slab[e].key, y.slab[f].key)
			}
		}
		if e != 0 || f != 0 || x.index.n != y.index.n {
			t.Fatalf("shard %d: %d vs %d entries", i, x.index.n, y.index.n)
		}
	}
}

// fillAnswer is the benchmark's cached answer: one A record, with the
// name shared by the question and the record.
func fillAnswer(name dnswire.Name) *dnswire.Message {
	m := dnswire.NewQuery(0, name, dnswire.TypeA).Reply()
	m.Header.RecursionAvailable = true
	m.Answers = []dnswire.ResourceRecord{{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")}}}
	return m
}

// chainAnswer is a CNAME to a target of its own and the target's two A
// records.
func chainAnswer(name dnswire.Name) *dnswire.Message {
	m := dnswire.NewQuery(0, name, dnswire.TypeA).Reply()
	target := dnswire.Name("edge." + string(name))
	m.Answers = []dnswire.ResourceRecord{
		{Name: name, Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.CNAMERecord{Target: target}},
		{Name: target, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: target, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.2")}},
	}
	return m
}

// TestCacheFootprint: what a cached answer costs. The entry — header,
// question class, counts and one record inline — is a slot of its
// shard's slab, and every byte it grows by costs every answer; a full
// default cache's index holds at most two 4-byte slots per entry. Filled
// as the benchmark fills it, a full default cache's live heap after a
// collection is at most 224 B per entry, the name and boxed RData it
// shares with the caller included. Two more rows hold longer answers and
// negative ones to budgets of their own, so that the layout is not
// shaped to one-record answers.
func TestCacheFootprint(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 168 {
		t.Errorf("entry is %d bytes, want <= 168", n)
	}
	if n := unsafe.Sizeof(index{}.slots[0]); n != 4 {
		t.Errorf("index slots are %d bytes, want 4", n)
	}
	const full = 65536
	for _, row := range []struct {
		what   string
		answer func(dnswire.Name) *dnswire.Message
		budget float64
	}{
		{"one A record, as the benchmark fills it", fillAnswer, 224},
		{"a CNAME and two A records", chainAnswer, 424},
		{"a negative SOA answer", func(name dnswire.Name) *dnswire.Message { return negative(name, 3600, 300) }, 264},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := New(Config{})
		for i := 0; c.Len() < full; i++ {
			if i > 4*full {
				t.Fatalf("cache holds %d of %d entries after %d inserts", c.Len(), full, i)
			}
			name := dnswire.Name(fmt.Sprintf("f%07d.fill.a.com.", i))
			c.Put(name, dnswire.TypeA, row.answer(name))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perEntry := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / full
		slots := 0
		for i := range c.shards {
			slots += len(c.shards[i].index.slots)
		}
		runtime.KeepAlive(c)
		t.Logf("%s: %.1f B of live heap per entry, %d index slots for %d entries", row.what, perEntry, slots, full)
		if perEntry > row.budget {
			t.Errorf("%s: %.1f B of live heap per entry, want <= %.0f", row.what, perEntry, row.budget)
		}
		if slots > 2*full {
			t.Errorf("%s: %d index slots for %d entries, want <= 2 per entry", row.what, slots, full)
		}
	}
}
