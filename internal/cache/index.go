package cache

import (
	"hash/maphash"

	"repro/internal/dnswire"
)

// index is a shard's table of its entries: open addressing over an
// array of slab slots, probed linearly from a key's home slot, with 0 —
// the slab's LRU anchor, never an entry — marking an empty one. It is
// never more than half full, and it doubles when an insert would take it
// past that, so its size follows the shard's entry count and a large
// cache reserves nothing up front. Removal shifts the rest of the
// cluster back instead of leaving a tombstone, so a probe ends at the
// first empty slot. The key lives in the entry only, beside its slot
// hash (entry.hash), so neither growth nor removal hashes a name again.
// The caller holds the shard's lock: the read lock for find, the write
// lock for the rest.
type index struct {
	slots []int32 // nil, or a power-of-two length
	n     int
}

// minIndexSlots is the size of a shard's first table.
const minIndexSlots = 8

// slotHash is a key's slot hash: the cache's seeded maphash of the name
// mixed with the type. maphash.String and maphash.Bytes agree on equal
// contents, so sum may come from either. The seed is per cache, so a
// client cannot choose names that share a home slot and build a probe
// chain; the slot a key takes never shows outside the index.
func slotHash(sum uint64, typ dnswire.Type) uint32 {
	const golden = 0x9e3779b97f4a7c15 // an odd multiplier spreads the type over every bit
	return uint32(sum ^ uint64(typ)*golden)
}

// hashOf is k's slot hash in c.
func (c *Cache) hashOf(k key) uint32 {
	return slotHash(maphash.String(c.seed, string(k.name)), k.typ)
}

// find returns the slot of (name, typ), whose slot hash is h, in s, or
// 0. Comparing the name's bytes to the stored string allocates nothing.
func find[N ~string | ~[]byte](s *shard, h uint32, name N, typ dnswire.Type) int32 {
	x := &s.index
	if x.n == 0 {
		return 0
	}
	mask := uint32(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := x.slots[i]
		if v == 0 {
			return 0
		}
		if e := &s.slab[v]; e.hash == h && e.key.typ == typ && string(e.key.name) == string(name) {
			return v
		}
	}
}

// insert adds slab slot v, whose key the index does not hold, growing
// first when v would take it past half full.
func (x *index) insert(slab []entry, v int32) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow(slab)
	}
	x.place(slab, v)
	x.n++
}

// place puts v in the first empty slot from its home.
func (x *index) place(slab []entry, v int32) {
	mask := uint32(len(x.slots) - 1)
	i := slab[v].hash & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = v
}

// grow doubles the table and places every entry again.
func (x *index) grow(slab []entry) {
	old := x.slots
	x.slots = make([]int32, max(minIndexSlots, 2*len(old)))
	for _, v := range old {
		if v != 0 {
			x.place(slab, v)
		}
	}
}

// remove takes v, which the index holds, out of it. Each later entry of
// v's cluster whose probe from its home passes the hole moves back into
// it, and its slot becomes the hole, so no probe meets a gap it would
// have crossed before.
func (x *index) remove(slab []entry, v int32) {
	mask := uint32(len(x.slots) - 1)
	hole := slab[v].hash & mask
	for x.slots[hole] != v {
		hole = (hole + 1) & mask
	}
	for i := (hole + 1) & mask; x.slots[i] != 0; i = (i + 1) & mask {
		// The entry at i may fill the hole when its home is no nearer
		// to i, going forward, than the hole is.
		if home := slab[x.slots[i]].hash & mask; (i-home)&mask >= (i-hole)&mask {
			x.slots[hole] = x.slots[i]
			hole = i
		}
	}
	x.slots[hole] = 0
	x.n--
}
