// Package cache implements the sharded, TTL-aware DNS message cache
// the resolver stack's warm path runs on. Böttger et al. and Hounsel
// et al. both find that connection reuse plus caching is what makes
// encrypted DNS competitive with Do53; this package supplies the
// caching half for every transport in one place.
//
// Design:
//
//   - Power-of-two sharding: the (name, type) key is FNV-1a hashed to
//     a shard, each shard holding its own RWMutex, hash map, and LRU
//     list, so concurrent resolvers do not serialize on one lock.
//   - Lock-free-ish hits: the hit path takes only the shard's read
//     lock and records recency/popularity in per-entry atomics; the
//     LRU list is never touched on a hit. Eviction uses the classic
//     second-chance (CLOCK) scan over those atomic reference bits, so
//     read-heavy workloads scale across cores instead of convoying on
//     a mutex per lookup.
//   - TTL awareness: positive answers live for the minimum answer TTL
//     and are served with aged TTLs; negative answers (NXDOMAIN and
//     NoData) are cached for the SOA MINIMUM per RFC 2308.
//   - Serve-stale (RFC 8767): with Config.StaleTTL set, expired
//     entries are retained for the stale window and served (TTLs
//     capped at staleTTLCap) while a detached singleflight
//     refresh repopulates the entry in the background — a dead
//     upstream degrades to stale answers instead of errors.
//   - Prefetch: with Config.PrefetchThreshold set, popular entries
//     (per-entry hit count >= prefetchMinHits) are refreshed
//     in the background before they expire, keeping hot names on the
//     warm path even as TTLs run out. See stale.go.
//   - Singleflight: Do collapses concurrent misses for the same key
//     into one upstream resolution that every waiter shares — the
//     query-coalescing behaviour production resolvers use to survive
//     request storms.
//   - One owner per message: Put stores a copy of the answer in the
//     entry's own storage, so the caller keeps its message (and may
//     pool it).
//   - Recycled entries: every copy out of an entry is made under its
//     shard's read lock, so once Put holds the write lock nothing can
//     read an entry it evicts or replaces, and it fills the new entry
//     in that storage. The one exception is a hit that hands out the
//     entry's own message (below): it marks the entry shared, and a
//     shared entry is left to the garbage collector.
//   - Allocation-free warm hits: a fresh Get or Lookup hit younger
//     than one second returns the stored copy itself (TTLs need no
//     aging yet), so the warm path stays 0 allocs/op like the obs hot
//     path (BenchmarkCacheHit pins this). Callers must treat returned
//     messages as read-only; one that stamps headers copies the hit
//     into storage of its own with LookupInto, which a server front
//     reuses across queries, so that every hit copies for free.
//
// Determinism: given the same sequence of Get/Put calls the cache's
// contents and counters are a pure function of that sequence — there
// is no background sweeper, wall-clock sampling, or random eviction —
// so campaigns that thread a cache through their measurement loop
// stay byte-identical under equal seeds. Background refreshes are the
// one asynchronous element; Config.SyncRefresh runs them inline for
// virtual-time studies that need that purity back.
package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// The cache's fixed tunings.
const (
	// numShards is the shard count of a cache large enough to fill
	// them (a power of two, so the hash masks instead of dividing).
	numShards = 16
	// staleTTLCap caps, in seconds, the TTL stamped on stale answers
	// (the RFC 8767 §4 recommendation).
	staleTTLCap = 30
	// prefetchMinHits is the popularity floor for prefetch: one-hit
	// wonders are not worth refreshing forever.
	prefetchMinHits = 3
	// refreshTimeout bounds one background refresh; the refresh
	// context is detached from any foreground caller.
	refreshTimeout = 5 * time.Second
	// refreshBackoff is the minimum spacing between refresh attempts
	// for a key after a failed refresh, so a dead upstream under a
	// stale-hit storm is not hammered.
	refreshBackoff = time.Second
)

// Config parameterizes a Cache. The zero value gives the defaults.
type Config struct {
	// MaxEntries bounds the total entry count across all shards
	// (default 65536). Capacity is split evenly across the 16 shards;
	// small caches are collapsed to fewer shards so per-shard capacity
	// — and therefore LRU behaviour — stays meaningful.
	MaxEntries int
	// Clock overrides the time source (tests, virtual-time studies).
	// Nil means time.Now.
	Clock func() time.Time

	// StaleTTL, when positive, enables RFC 8767 serve-stale: expired
	// entries are retained for this window past expiry and served
	// stale (TTLs capped at 30 s) while a background refresh
	// repopulates them. Zero keeps the classic expiry-means-miss
	// lifecycle.
	StaleTTL time.Duration
	// PrefetchThreshold, when positive, enables popularity-driven
	// prefetch: a fresh hit whose remaining TTL is below the
	// threshold and whose entry has accumulated at least 3 hits since
	// insertion triggers a background refresh before the entry
	// expires.
	PrefetchThreshold time.Duration
	// SyncRefresh runs refreshes inline on the triggering Get instead
	// of on a goroutine — deterministic mode for virtual-time studies
	// and table-driven tests. Foreground Gets then pay the refresh
	// cost, so leave it off in servers.
	SyncRefresh bool
}

// Stats is a snapshot of the cache's cumulative counters.
type Stats struct {
	// Hits counts Gets served from a live (fresh) entry.
	Hits int64
	// Misses counts Gets that found nothing (or only a dead entry).
	Misses int64
	// NegativeHits counts the subset of Hits served from an RFC 2308
	// negative entry (also included in Hits).
	NegativeHits int64
	// StaleHits counts Gets served from an expired entry inside the
	// serve-stale window (not included in Hits).
	StaleHits int64
	// Evictions counts entries removed by the capacity bound (expired
	// entries removed on access are not evictions).
	Evictions int64
	// Puts counts accepted insertions (uncacheable messages excluded).
	Puts int64
	// SharedFlights counts Do callers that waited on another caller's
	// in-flight resolution instead of launching their own.
	SharedFlights int64
	// Prefetches counts background refreshes triggered by the
	// popularity prefetcher (before expiry).
	Prefetches int64
	// Refreshes counts background refreshes that repopulated their
	// entry (stale-triggered and prefetch-triggered alike).
	Refreshes int64
	// RefreshFails counts background refreshes that failed (error,
	// unusable RCode, or an uncacheable answer); the stale entry is
	// retained and keeps serving until StaleTTL truly lapses.
	RefreshFails int64
}

// key identifies one cached RRset.
type key struct {
	name dnswire.Name
	typ  dnswire.Type
}

// entry is one cached answer in one allocation: the cache's own copy of
// the message, with its question and a one-record answer inline (more
// records go into one slice the three sections share). Every field
// except the atomics changes only under the shard's write lock — when
// Put fills the entry, new or recycled — which is what lets the hit
// path read them under the shard's read lock only.
type entry struct {
	key key
	msg dnswire.Message
	q   [1]dnswire.Question
	rr  [1]dnswire.ResourceRecord
	// inserted and expires are offsets from the cache's epoch.
	inserted, expires time.Duration
	// prev and next link the entry into its shard's LRU list; the list
	// is intrusive so an insert allocates the entry and nothing else.
	prev, next *entry

	// flags holds flagTouched, flagNegative and flagShared.
	flags atomic.Uint32
	// hits counts lookups served by this entry since insertion — the
	// popularity signal the prefetcher reads. Replaced entries start
	// from zero, so prefetch continues only while a name stays hot.
	hits atomic.Int64
	// refreshFailedAt is the clock's UnixNano at the last failed
	// refresh of the entry's key (0 = never), spacing retry attempts by
	// refreshBackoff.
	refreshFailedAt atomic.Int64
}

// The entry's flags.
const (
	// flagTouched is the second-chance reference bit: set by every hit,
	// cleared (with one reprieve) by the eviction scan.
	flagTouched uint32 = 1 << iota
	// flagNegative marks an RFC 2308 negative answer; it never changes.
	flagNegative
	// flagShared marks an entry whose own message a hit handed out:
	// Put never recycles it.
	flagShared
)

// mark sets flag in e's flags. Hits set flags under the shard's read
// lock, side by side, and only the write lock's holder clears one.
func (e *entry) mark(flag uint32) {
	for f := e.flags.Load(); f&flag == 0; f = e.flags.Load() {
		if e.flags.CompareAndSwap(f, f|flag) {
			return
		}
	}
}

// copyOf makes msg's header and sections e's own. Names and RData
// values stay shared with msg: nothing edits them.
func (e *entry) copyOf(msg *dnswire.Message) {
	e.msg.Header = msg.Header
	e.msg.Questions = append(e.q[:0], msg.Questions...)
	rrs := e.rr[:]
	if n := len(msg.Answers) + len(msg.Authorities) + len(msg.Additionals); n > len(rrs) {
		rrs = make([]dnswire.ResourceRecord, n)
	}
	e.msg.Answers, rrs = carve(rrs, msg.Answers)
	e.msg.Authorities, rrs = carve(rrs, msg.Authorities)
	e.msg.Additionals, _ = carve(rrs, msg.Additionals)
}

// carve copies src to the front of buf and returns the copy, capped at
// its length so that no append reaches the next section, and the rest
// of buf.
func carve(buf, src []dnswire.ResourceRecord) (section, rest []dnswire.ResourceRecord) {
	n := copy(buf, src)
	return buf[:n:n], buf[n:]
}

// shard is one lock domain: a map plus its LRU list. Hits take only
// the read lock; Put, eviction, and dead-entry removal take the write
// lock.
type shard struct {
	mu         sync.RWMutex
	entries    map[key]*entry
	head, tail *entry // LRU list; head = most recently inserted/reprieved
	max        int
}

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	} else {
		s.tail = e
	}
	s.head = e
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Cache is a sharded, TTL-aware DNS message cache with optional
// RFC 8767 serve-stale and popularity prefetch. Construct with New;
// all methods are safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint64
	clock  func() time.Time
	// epoch is the clock's reading at New; entries keep their times as
	// offsets from it.
	epoch time.Time

	staleTTL          time.Duration // never negative
	prefetchThreshold time.Duration
	syncRefresh       bool

	// The cache's ledger: one obs handle per count, which Stats reads
	// and Instrument files in a registry. Each event is one atomic add.
	hits, misses, negHits, evictions, puts, shared *obs.Counter
	staleHits, prefetches, refreshes, refreshFails *obs.Counter
	entries                                        *obs.Gauge
	// size is the entry count across shards, kept as entries come and
	// go so neither Len nor the entries gauge takes every shard lock.
	size atomic.Int64

	flightMu sync.Mutex
	inflight map[key]*flight

	// refresher is the upstream fetch hook background refreshes run
	// (see SetRefresher); refreshing dedupes them per key.
	refresher  atomic.Pointer[Refresher]
	refreshMu  sync.Mutex
	refreshing map[key]struct{}
	refreshWG  sync.WaitGroup
}

// New creates a cache from cfg.
func New(cfg Config) *Cache {
	max := cfg.MaxEntries
	if max <= 0 {
		max = 65536
	}
	shards := numShards
	// A 16-way split of a tiny cache would give each shard capacity 0
	// or 1 and destroy LRU locality; collapse until every shard holds
	// at least 8 entries (or we are down to one shard).
	for shards > 1 && max/shards < 8 {
		shards /= 2
	}
	c := &Cache{
		shards:     make([]shard, shards),
		mask:       uint64(shards - 1),
		clock:      cfg.Clock,
		inflight:   make(map[key]*flight),
		refreshing: make(map[key]struct{}),

		staleTTL:          cfg.StaleTTL,
		prefetchThreshold: cfg.PrefetchThreshold,
		syncRefresh:       cfg.SyncRefresh,
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	if c.staleTTL < 0 {
		c.staleTTL = 0
	}
	c.epoch = c.clock()
	// Distribute capacity so the shard maxima sum exactly to max.
	base, rem := max/shards, max%shards
	for i := range c.shards {
		c.shards[i].entries = make(map[key]*entry)
		c.shards[i].max = base
		if i < rem {
			c.shards[i].max++
		}
	}
	c.Instrument(obs.NewRegistry(), "")
	return c
}

// now is the clock's reading as an offset from the epoch.
func (c *Cache) now() time.Duration { return c.clock().Sub(c.epoch) }

// shardFor hashes k to its shard.
func (c *Cache) shardFor(k key) *shard { return shardOf(c, k.name, k.typ) }

// shardOf is shardFor on the name's string or its bytes: FNV-1a over
// them and the type, inlined so the hot path does not allocate.
func shardOf[N ~string | ~[]byte](c *Cache, name N, typ dnswire.Type) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= uint64(typ)
	h *= prime64
	return &c.shards[h&c.mask]
}

// Outcome classifies one Lookup.
type Outcome uint8

const (
	// Miss: nothing usable cached; resolve upstream.
	Miss Outcome = iota
	// Fresh: a live entry answered.
	Fresh
	// Stale: an expired entry inside the serve-stale window answered
	// (TTLs capped); a background refresh may be repopulating it.
	Stale
)

// Get returns the cached response for (name, typ), or nil on miss.
// TTLs are aged by the whole seconds spent in cache; a fresh hit
// younger than one second returns the stored message itself without
// copying (the allocation-free warm path). Returned messages are
// shared and must be treated as read-only — a caller that stamps the
// header takes a copy of its own with LookupInto.
// With serve-stale enabled, Get transparently serves stale answers;
// use Lookup when the fresh/stale distinction matters.
func (c *Cache) Get(name dnswire.Name, typ dnswire.Type) *dnswire.Message {
	msg, _ := c.Lookup(name, typ)
	return msg
}

// Lookup is Get with the hit classification: (msg, Fresh) for a live
// entry, (msg, Stale) for an expired entry inside the serve-stale
// window (msg is a private copy with TTLs capped at staleTTLCap, and
// a detached background refresh is triggered), and (nil, Miss)
// otherwise.
func (c *Cache) Lookup(name dnswire.Name, typ dnswire.Type) (*dnswire.Message, Outcome) {
	return c.lookup(name, typ, nil, false)
}

// LookupInto is Lookup for a caller that stamps the answer with its
// query's identity. A hit's header and question are copied into dst, and
// every record into dst's own section storage with its TTL aged (an
// entry at least a second old) or capped (a stale one); the records'
// names and RData stay shared with the cache and read-only. dst's
// sections never alias a cached message, so a caller that reuses dst
// across queries — a pooled server front — pays nothing per hit once
// they have grown, and one that pools its answers cannot reach an entry.
// A nil dst is allocated here, with room for the question and two
// records. It returns dst (or the copy), or nil on a miss.
func (c *Cache) LookupInto(name dnswire.Name, typ dnswire.Type, dst *dnswire.Message) (*dnswire.Message, Outcome) {
	return c.lookup(name, typ, dst, true)
}

// KeyName returns the cache's own spelling — the canonical key string —
// of the presentation-form name it holds an entry for under (name, typ),
// or "" when it holds none. It neither counts nor touches the entry: a
// server front asks it before decoding a query, so that the decode takes
// this string (dnswire.UnpackReplyInto) instead of allocating one, and
// then looks the query up as usual. Indexing the map with the bytes
// allocates nothing.
func (c *Cache) KeyName(name []byte, typ dnswire.Type) dnswire.Name {
	s := shardOf(c, name, typ)
	var known dnswire.Name
	s.mu.RLock()
	if e, ok := s.entries[key{dnswire.Name(name), typ}]; ok {
		known = e.key.name // read under the lock: Put may recycle e
	}
	s.mu.RUnlock()
	return known
}

// noCap is the TTL cap of a fresh hit: none.
const noCap = ^uint32(0)

// lookup answers (name, typ) from its entry. Every copy is made under the
// shard's read lock, so that Put may recycle any entry it can lock: into
// dst (allocated when nil) when into is set, and otherwise when the TTLs
// need an edit. A fresh hit younger than a second without into is the
// entry's own message, and marks the entry shared.
func (c *Cache) lookup(name dnswire.Name, typ dnswire.Type, dst *dnswire.Message, into bool) (*dnswire.Message, Outcome) {
	k := key{name.Canonical(), typ}
	s := c.shardFor(k)
	s.mu.RLock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.RUnlock()
		c.misses.Inc()
		return nil, Miss
	}
	now := c.now()
	if now < e.expires {
		// Fresh hit: recency and popularity land in per-entry atomics,
		// never the LRU list — the read lock is all a hit takes.
		e.mark(flagTouched)
		hits := e.hits.Add(1)
		negative := e.flags.Load()&flagNegative != 0
		msg := &e.msg
		if dec := uint32((now - e.inserted) / time.Second); into || dec > 0 {
			msg = hitCopy(msg, dst, dec, noCap)
		} else {
			e.mark(flagShared)
		}
		refresh := c.prefetchThreshold > 0 && e.expires-now < c.prefetchThreshold &&
			hits >= prefetchMinHits && c.refreshDue(e)
		s.mu.RUnlock()

		c.hits.Inc()
		if negative {
			c.negHits.Inc()
		}
		if refresh {
			c.launchRefresh(k, true)
		}
		return msg, Fresh
	}
	if now < e.expires+c.staleTTL {
		// Serve-stale (RFC 8767): the expired entry answers with capped
		// TTLs — never the original ones, so downstream caches know the
		// data is on borrowed time (§4) — while a detached refresh
		// repopulates it. The serving path never blocks on that refresh.
		e.mark(flagTouched)
		e.hits.Add(1)
		msg := hitCopy(&e.msg, dst, 0, staleTTLCap)
		refresh := c.refreshDue(e)
		s.mu.RUnlock()

		c.staleHits.Inc()
		if refresh {
			c.launchRefresh(k, false)
		}
		return msg, Stale
	}
	s.mu.RUnlock()

	// Dead: expired past the stale window. Upgrade to the write lock to
	// remove it, re-checking, since the key may have been filled afresh
	// while unlocked.
	s.mu.Lock()
	if cur, ok := s.entries[k]; ok && now >= cur.expires+c.staleTTL {
		s.removeLocked(cur)
		c.size.Add(-1)
	}
	s.mu.Unlock()
	c.publishSize()
	c.misses.Inc()
	return nil, Miss
}

// Put caches a copy of msg as the answer for (name, typ) and reports
// whether it took it. Positive answers live for the minimum answer TTL;
// empty answers with an SOA authority are cached negatively for
// min(SOA TTL, SOA MINIMUM) per RFC 2308. Messages with no usable TTL
// (or TTL 0) are refused.
//
// msg stays the caller's: once Put returns the caller may edit msg or
// hand it to dnswire.PutMessage. Its names and RData values, which
// nothing edits, are shared with the copy.
//
// The copy is made in the storage of the entry the answer replaces or
// the one it evicts, unless a hit has handed that entry's message out:
// so an insert into a full shard allocates nothing.
func (c *Cache) Put(name dnswire.Name, typ dnswire.Type, msg *dnswire.Message) bool {
	ttl, negative, ok := TTL(msg)
	if !ok || ttl <= 0 {
		return false
	}
	k := key{name.Canonical(), typ}
	s := c.shardFor(k)
	now := c.now()
	grew, evicted := int64(1), int64(0)
	keep, reprieves := true, 0
	s.mu.Lock()
	var e *entry // the storage the answer takes over, if any
	if old, ok := s.entries[k]; ok {
		s.removeLocked(old)
		e, grew = old, 0
	} else if len(s.entries) >= s.max {
		// Full: evict the CLOCK victim, or the newcomer itself when every
		// entry is referenced.
		e, reprieves = s.victimLocked()
		evicted, keep = 1, e != nil
		if e != nil {
			s.removeLocked(e)
		}
	}
	if keep {
		if e == nil || e.flags.Load()&flagShared != 0 {
			e = new(entry)
		} else {
			*e = entry{}
		}
		e.key, e.inserted, e.expires = k, now, now+time.Duration(ttl)*time.Second
		if negative {
			e.flags.Store(flagNegative)
		}
		e.copyOf(msg)
		s.pushFront(e)
		s.entries[k] = e
	}
	s.reprieveLocked(reprieves)
	s.mu.Unlock()
	c.size.Add(grew - evicted)
	c.publishSize()
	c.puts.Inc()
	c.evictions.Add(evicted)
	return true
}

// publishSize sets the entries gauge to size, again whenever size moved
// meanwhile: the last Set of all follows the last change, so at rest the
// gauge is Len.
func (c *Cache) publishSize() {
	for n := c.size.Load(); ; {
		c.entries.Set(float64(n))
		m := c.size.Load()
		if m == n {
			return
		}
		n = m
	}
}

// victimLocked picks the eviction victim of an insert into a full shard
// by the CLOCK algorithm, without moving anything: walking from the LRU
// tail, the first entry whose reference bit is clear, and the count of
// referenced entries the walk passed, each due a reprieve. When every
// entry is referenced the newcomer itself is the victim: it returns nil
// and the shard's length. The caller holds s.mu.
func (s *shard) victimLocked() (victim *entry, reprieves int) {
	for e := s.tail; e != nil; e = e.prev {
		if e.flags.Load()&flagTouched == 0 {
			return e, reprieves
		}
		reprieves++
	}
	return nil, reprieves
}

// reprieveLocked gives the n entries at the LRU tail their second
// chance: each has its reference bit cleared and moves to the front.
// Put calls it after the newcomer went to the front, so the reprieved
// entries end up ahead of it, as when the scan ran after the insert. The
// caller holds s.mu.
func (s *shard) reprieveLocked(n int) {
	for ; n > 0; n-- {
		e := s.tail
		e.flags.Store(e.flags.Load() &^ flagTouched)
		s.unlink(e)
		s.pushFront(e)
	}
}

// removeLocked unlinks e from the shard; the caller holds s.mu.
func (s *shard) removeLocked(e *entry) {
	delete(s.entries, e.key)
	s.unlink(e)
}

// Len reports the number of live entries across all shards (including
// expired entries not yet removed on access, and stale entries still
// inside their serve-stale window).
func (c *Cache) Len() int { return int(c.size.Load()) }

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		NegativeHits:  c.negHits.Value(),
		StaleHits:     c.staleHits.Value(),
		Evictions:     c.evictions.Value(),
		Puts:          c.puts.Value(),
		SharedFlights: c.shared.Value(),
		Prefetches:    c.prefetches.Value(),
		Refreshes:     c.refreshes.Value(),
		RefreshFails:  c.refreshFails.Value(),
	}
}

// Instrument files the cache's own counters in reg, under
// <prefix>_{hits,misses,negative_hits,stale_served,evictions,puts,
// singleflight_shared,prefetch,refreshes,refresh_fail}_total (the Stats
// fields in order) plus a <prefix>_entries gauge. An empty prefix uses
// "cache". New files them in a private registry; call Instrument once,
// before the cache is shared, and Stats and reg read the same counts
// from then on. A name is one count: two caches instrumented under one
// prefix in one registry share their Stats.
func (c *Cache) Instrument(reg *obs.Registry, prefix string) {
	if prefix == "" {
		prefix = "cache"
	}
	counter := func(what string) *obs.Counter { return reg.Counter(prefix + "_" + what + "_total") }
	c.hits, c.misses, c.negHits = counter("hits"), counter("misses"), counter("negative_hits")
	c.staleHits, c.evictions, c.puts = counter("stale_served"), counter("evictions"), counter("puts")
	c.shared, c.prefetches = counter("singleflight_shared"), counter("prefetch")
	c.refreshes, c.refreshFails = counter("refreshes"), counter("refresh_fail")
	c.entries = reg.Gauge(prefix + "_entries")
	c.publishSize()
}

// TTL derives the cache lifetime in seconds for a response and whether
// it is a negative one (RFC 2308): the minimum Answer TTL, or for an
// empty answer min(SOA TTL, SOA MINIMUM) from the Authority section.
// ok is false when the message carries neither. It is the one
// freshness rule, shared with the DoH server's Cache-Control.
func TTL(msg *dnswire.Message) (ttl uint32, negative bool, ok bool) {
	if len(msg.Answers) > 0 {
		min := msg.Answers[0].TTL
		for _, rr := range msg.Answers[1:] {
			if rr.TTL < min {
				min = rr.TTL
			}
		}
		return min, false, true
	}
	// Negative caching: SOA MINIMUM capped by the SOA record's own TTL.
	for _, rr := range msg.Authorities {
		if soa, ok := rr.Data.(dnswire.SOARecord); ok {
			ttl := soa.Minimum
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
			return ttl, true, true
		}
	}
	return 0, false, false
}

// hitCopy is the one private copy of a hit: msg copied into dst
// (dnswire.Message.CopyInto, allocating when dst is nil), every record's
// TTL lowered by dec (floored at zero) and then capped at cap.
func hitCopy(msg, dst *dnswire.Message, dec, cap uint32) *dnswire.Message {
	dst = msg.CopyInto(dst)
	if dec == 0 && cap == noCap {
		return dst
	}
	for _, rrs := range [...][]dnswire.ResourceRecord{dst.Answers, dst.Authorities, dst.Additionals} {
		for i := range rrs {
			rrs[i].TTL = min(rrs[i].TTL-min(rrs[i].TTL, dec), cap)
		}
	}
	return dst
}
