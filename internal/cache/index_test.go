package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dnswire"
)

// indexed is k's entry as its shard's index finds it, or nil.
func indexed(c *Cache, k key) *entry {
	return find(&c.shardFor(k).index, c.hashOf(k), k.name, k.typ)
}

// checkIndex holds x to ref, the entries it must hold by key, and to its
// own invariants: no more than half full, a count that is its occupied
// slots, and every entry reachable from its home slot without crossing
// an empty one.
func checkIndex(t *testing.T, x *index, ref map[key]*entry, universe []key, hashes map[key]uint32) {
	t.Helper()
	if x.n != len(ref) {
		t.Fatalf("index counts %d entries, the reference holds %d", x.n, len(ref))
	}
	if 2*x.n > len(x.slots) {
		t.Fatalf("%d entries in %d slots: more than half full", x.n, len(x.slots))
	}
	for _, k := range universe {
		if got, want := find(x, hashes[k], k.name, k.typ), ref[k]; got != want {
			t.Fatalf("find %v = %p, want %p", k, got, want)
		}
	}
	occupied := 0
	mask := uint32(len(x.slots) - 1)
	for i, e := range x.slots {
		if e == nil {
			continue
		}
		occupied++
		for j := e.hash & mask; j != uint32(i); j = (j + 1) & mask {
			if x.slots[j] == nil {
				t.Fatalf("%v in slot %d is cut off from its home %d by the empty slot %d", e.key, i, e.hash&mask, j)
			}
		}
	}
	if occupied != x.n {
		t.Fatalf("%d slots occupied, index counts %d", occupied, x.n)
	}
}

// FuzzShardIndex drives an index through inserts, replacements and
// removals over 16 keys against a map. The input's first 16 bytes are
// the keys' slot hashes, so that keys share homes and clusters wrap
// past the table's end; each later byte is one operation on one key
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
		var x index
		ref := make(map[key]*entry)
		for _, op := range data[keys:] {
			k := universe[op%keys]
			old := ref[k]
			switch (op / keys) % 3 {
			case 0, 1: // insert, or replace what the key holds, as Put does
				if old != nil {
					x.remove(old)
				}
				e := &entry{key: k, hash: hashes[k]}
				x.insert(e)
				ref[k] = e
			case 2:
				if old != nil {
					x.remove(old)
					delete(ref, k)
				}
			}
			checkIndex(t, &x, ref, universe, hashes)
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
	for i, e := range s.index.slots {
		if e != nil {
			probes := int((uint32(i)-e.hash)&mask) + 1
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
		e, f := x.head, y.head
		for ; e != nil && f != nil; e, f = e.next, f.next {
			if e.key != f.key {
				t.Fatalf("shard %d: LRU order differs: %v vs %v", i, e.key, f.key)
			}
		}
		if e != nil || f != nil || x.index.n != y.index.n {
			t.Fatalf("shard %d: %d vs %d entries", i, x.index.n, y.index.n)
		}
	}
}

// TestCacheFootprint: what a cached answer costs, read from the types
// and the tables rather than the heap. The entry (its message, question
// and one record inline) is one 256-byte size class, and a field that
// pushes it over costs every answer the next class up; a full default
// cache's index holds at most two slots per entry.
func TestCacheFootprint(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 256 {
		t.Errorf("entry is %d bytes, want <= 256", n)
	}
	c := New(Config{})
	const full = 65536
	msg := answer("fill.a.com.", 300)
	for i := 0; c.Len() < full; i++ {
		if i > 4*full {
			t.Fatalf("cache holds %d of %d entries after %d inserts", c.Len(), full, i)
		}
		c.Put(dnswire.Name(fmt.Sprintf("f%07d.fill.a.com.", i)), dnswire.TypeA, msg)
	}
	slots := 0
	for i := range c.shards {
		slots += len(c.shards[i].index.slots)
	}
	t.Logf("%d entries, %d index slots (%d B each)", full, slots, unsafe.Sizeof((*entry)(nil)))
	if slots > 2*full {
		t.Errorf("%d index slots for %d entries, want <= 2 per entry", slots, full)
	}
}
