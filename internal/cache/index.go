package cache

import (
	"hash/maphash"

	"repro/internal/dnswire"
)

// index is a shard's table of its entries: open addressing over an
// array of entry pointers, probed linearly from a key's home slot. It is
// never more than half full, and it doubles when an insert would take it
// past that, so its size follows the shard's entry count and a large
// cache reserves nothing up front. Removal shifts the rest of the
// cluster back instead of leaving a tombstone, so a probe ends at the
// first empty slot. The key lives in the entry only, beside its slot
// hash (entry.hash), so neither growth nor removal hashes a name again.
// The caller holds the shard's lock: the read lock for find, the write
// lock for the rest.
type index struct {
	slots []*entry // nil, or a power-of-two length
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

// find returns the entry of (name, typ), whose slot hash is h, or nil.
// Comparing the name's bytes to the stored string allocates nothing.
func find[N ~string | ~[]byte](x *index, h uint32, name N, typ dnswire.Type) *entry {
	if x.n == 0 {
		return nil
	}
	mask := uint32(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := x.slots[i]
		if e == nil {
			return nil
		}
		if e.hash == h && e.key.typ == typ && string(e.key.name) == string(name) {
			return e
		}
	}
}

// insert adds e, whose key the index does not hold, growing first when e
// would take it past half full.
func (x *index) insert(e *entry) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	x.place(e)
	x.n++
}

// place puts e in the first empty slot from its home.
func (x *index) place(e *entry) {
	mask := uint32(len(x.slots) - 1)
	i := e.hash & mask
	for x.slots[i] != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = e
}

// grow doubles the table and places every entry again.
func (x *index) grow() {
	old := x.slots
	x.slots = make([]*entry, max(minIndexSlots, 2*len(old)))
	for _, e := range old {
		if e != nil {
			x.place(e)
		}
	}
}

// remove takes e, which the index holds, out of it. Each later entry of
// e's cluster whose probe from its home passes the hole moves back into
// it, and its slot becomes the hole, so no probe meets a gap it would
// have crossed before.
func (x *index) remove(e *entry) {
	mask := uint32(len(x.slots) - 1)
	hole := e.hash & mask
	for x.slots[hole] != e {
		hole = (hole + 1) & mask
	}
	for i := (hole + 1) & mask; x.slots[i] != nil; i = (i + 1) & mask {
		// The entry at i may fill the hole when its home is no nearer
		// to i, going forward, than the hole is.
		if home := x.slots[i].hash & mask; (i-home)&mask >= (i-hole)&mask {
			x.slots[hole] = x.slots[i]
			hole = i
		}
	}
	x.slots[hole] = nil
	x.n--
}
