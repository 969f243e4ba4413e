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
//   - Allocation-free warm hits: a fresh hit younger than one second
//     returns the stored message without copying (TTLs need no aging
//     yet), so the warm path stays 0 allocs/op like the obs hot path
//     (BenchmarkCacheHit pins this). Callers must treat returned
//     messages as read-only; one that stamps headers copies the hit
//     into storage of its own with LookupInto, which a server front
//     reuses across queries, so that aged and stale hits copy for free.
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

// entry is one cached answer. Every field except the atomics is
// immutable after insertion — entries are replaced wholesale by Put,
// never edited — which is what lets the hit path read them under the
// shard's read lock only.
type entry struct {
	key      key
	msg      *dnswire.Message
	inserted time.Time
	expires  time.Time
	negative bool
	// prev and next link the entry into its shard's LRU list; the list
	// is intrusive so an insert allocates the entry and nothing else.
	prev, next *entry

	// touched is the second-chance reference bit: set by every hit,
	// cleared (with one reprieve) by the eviction scan.
	touched atomic.Bool
	// hits counts lookups served by this entry since insertion — the
	// popularity signal the prefetcher reads. Replaced entries start
	// from zero, so prefetch continues only while a name stays hot.
	hits atomic.Int64
	// refreshFailedAt is the clock's UnixNano at the last failed
	// refresh (0 = never), spacing retry attempts by refreshBackoff.
	refreshFailedAt atomic.Int64
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

	staleTTL          time.Duration
	prefetchThreshold time.Duration
	syncRefresh       bool

	hits, misses, negHits, evictions, puts, shared atomic.Int64
	staleHits, prefetches, refreshes, refreshFails atomic.Int64
	// size is the entry count across shards, kept as entries come and
	// go so neither Len nor the entries gauge takes every shard lock.
	size atomic.Int64

	// inst mirrors the counters into an obs registry when Instrument
	// was called; nil otherwise. Handles are resolved once so the hot
	// path touches plain atomics only.
	inst *instruments

	flightMu sync.Mutex
	inflight map[key]*flight

	// refresher is the upstream fetch hook background refreshes run
	// (see SetRefresher); refreshing dedupes them per key.
	refresher  atomic.Pointer[Refresher]
	refreshMu  sync.Mutex
	refreshing map[key]struct{}
	refreshWG  sync.WaitGroup
}

// instruments holds the registry handles Instrument resolved.
type instruments struct {
	hits, misses, negHits, evictions   *obs.Counter
	shared                             *obs.Counter
	staleServed, prefetch, refreshFail *obs.Counter
	entries                            *obs.Gauge
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
	// Distribute capacity so the shard maxima sum exactly to max.
	base, rem := max/shards, max%shards
	for i := range c.shards {
		c.shards[i].entries = make(map[key]*entry)
		c.shards[i].max = base
		if i < rem {
			c.shards[i].max++
		}
	}
	return c
}

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
	msg, outcome, dec, cap := c.lookup(name, typ)
	if msg == nil || dec == 0 && cap == noCap {
		return msg, outcome
	}
	return hitCopy(msg, nil, dec, cap), outcome
}

// LookupInto is Lookup for a caller that stamps the answer with its
// query's identity. A hit's header and question are copied into dst, and
// every record into dst's own section storage with its TTL aged (an
// entry at least a second old) or capped (a stale one); the records'
// names and RData stay shared with the cache and read-only. dst's
// sections never alias a cached message, so a caller that reuses dst
// across queries — a pooled server front — pays nothing per hit once
// they have grown. A nil dst is allocated here, with room for the
// question and two records; a young hit then shares the stored records,
// which need no edit. It returns dst (or the copy), or nil on a miss.
func (c *Cache) LookupInto(name dnswire.Name, typ dnswire.Type, dst *dnswire.Message) (*dnswire.Message, Outcome) {
	msg, outcome, dec, cap := c.lookup(name, typ)
	if msg == nil {
		return nil, Miss
	}
	return hitCopy(msg, dst, dec, cap), outcome
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
	s.mu.RLock()
	e, ok := s.entries[key{dnswire.Name(name), typ}]
	s.mu.RUnlock()
	if !ok {
		return ""
	}
	return e.key.name
}

// noCap is the TTL cap of a fresh hit: none.
const noCap = ^uint32(0)

// lookup returns the stored message for (name, typ) and the TTL edit its
// hit needs: lower every TTL by dec, then cap it at cap. A fresh hit
// younger than a second needs none (0, noCap).
func (c *Cache) lookup(name dnswire.Name, typ dnswire.Type) (msg *dnswire.Message, outcome Outcome, dec, cap uint32) {
	k := key{name.Canonical(), typ}
	s := c.shardFor(k)
	s.mu.RLock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.RUnlock()
		c.countMiss()
		return nil, Miss, 0, noCap
	}
	now := c.clock()
	if now.Before(e.expires) {
		// Fresh hit: recency and popularity land in per-entry atomics,
		// never the LRU list — the read lock is all a hit takes.
		e.touched.Store(true)
		hits := e.hits.Add(1)
		msg, negative := e.msg, e.negative
		age := now.Sub(e.inserted)
		remaining := e.expires.Sub(now)
		s.mu.RUnlock()

		c.hits.Add(1)
		if negative {
			c.negHits.Add(1)
		}
		if inst := c.inst; inst != nil {
			inst.hits.Inc()
			if negative {
				inst.negHits.Inc()
			}
		}
		if c.prefetchThreshold > 0 && remaining < c.prefetchThreshold &&
			hits >= prefetchMinHits {
			c.launchRefresh(k, e, true)
		}
		return msg, Fresh, uint32(age / time.Second), noCap
	}
	if c.staleTTL > 0 && now.Before(e.expires.Add(c.staleTTL)) {
		// Serve-stale (RFC 8767): the expired entry answers with
		// capped TTLs while a detached refresh repopulates it. The
		// serving path never blocks on that refresh.
		e.touched.Store(true)
		e.hits.Add(1)
		msg := e.msg
		s.mu.RUnlock()

		c.staleHits.Add(1)
		if inst := c.inst; inst != nil {
			inst.staleServed.Inc()
		}
		c.launchRefresh(k, e, false)
		// RFC 8767 §4: never resurrect the original TTL; tell downstream
		// caches the data is on borrowed time.
		return msg, Stale, 0, staleTTLCap
	}
	s.mu.RUnlock()

	// Dead: expired past the stale window. Upgrade to the write lock
	// to remove it (re-checking, since the entry may have been
	// replaced or removed while unlocked).
	s.mu.Lock()
	if cur, ok := s.entries[k]; ok && cur == e {
		s.removeLocked(e)
		c.size.Add(-1)
	}
	s.mu.Unlock()
	c.countMiss()
	return nil, Miss, 0, noCap
}

func (c *Cache) countMiss() {
	c.misses.Add(1)
	if inst := c.inst; inst != nil {
		inst.misses.Inc()
	}
}

// Put caches msg as the answer for (name, typ) and reports whether it
// was accepted. Positive answers live for the minimum answer TTL;
// empty answers with an SOA authority are cached negatively for
// min(SOA TTL, SOA MINIMUM) per RFC 2308. Messages with no usable TTL
// (or TTL 0) are not cached.
func (c *Cache) Put(name dnswire.Name, typ dnswire.Type, msg *dnswire.Message) bool {
	ttl, negative, ok := TTL(msg)
	if !ok || ttl <= 0 {
		return false
	}
	k := key{name.Canonical(), typ}
	s := c.shardFor(k)
	now := c.clock()
	e := &entry{
		key: k, msg: msg, negative: negative,
		inserted: now,
		expires:  now.Add(time.Duration(ttl) * time.Second),
	}
	var evicted int64
	grew := int64(1)
	s.mu.Lock()
	if old, ok := s.entries[k]; ok {
		s.removeLocked(old)
		grew = 0
	}
	s.pushFront(e)
	s.entries[k] = e
	for len(s.entries) > s.max {
		victim := s.secondChanceVictimLocked()
		if victim == nil {
			break
		}
		s.removeLocked(victim)
		evicted++
	}
	s.mu.Unlock()
	size := c.size.Add(grew - evicted)
	c.puts.Add(1)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
	if inst := c.inst; inst != nil {
		inst.evictions.Add(evicted)
		inst.entries.Set(float64(size))
	}
	return true
}

// secondChanceVictimLocked picks the eviction victim by the CLOCK
// algorithm: walk from the LRU tail; an entry whose reference bit is
// set gets the bit cleared and one reprieve (moved to the front), an
// entry whose bit is clear is the victim. Because cleared entries move
// away from the tail, one full pass is the worst case. The caller
// holds s.mu.
func (s *shard) secondChanceVictimLocked() *entry {
	for scanned := len(s.entries); scanned > 0 && s.tail != nil; scanned-- {
		e := s.tail
		if e.touched.CompareAndSwap(true, false) {
			s.unlink(e)
			s.pushFront(e)
			continue
		}
		return e
	}
	// Every entry was referenced this cycle: the tail (whose bit was
	// cleared first) is the victim.
	return s.tail
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
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		NegativeHits:  c.negHits.Load(),
		StaleHits:     c.staleHits.Load(),
		Evictions:     c.evictions.Load(),
		Puts:          c.puts.Load(),
		SharedFlights: c.shared.Load(),
		Prefetches:    c.prefetches.Load(),
		Refreshes:     c.refreshes.Load(),
		RefreshFails:  c.refreshFails.Load(),
	}
}

// Instrument mirrors the cache's counters into reg under
// <prefix>_{hits,misses,negative_hits,evictions,singleflight_shared,
// stale_served,prefetch,refresh_fail}_total plus a <prefix>_entries
// gauge. An empty prefix uses "cache". Call it once, before the cache
// is shared; handles are resolved here so the hot path stays
// allocation-free.
func (c *Cache) Instrument(reg *obs.Registry, prefix string) {
	if prefix == "" {
		prefix = "cache"
	}
	c.inst = &instruments{
		hits:        reg.Counter(prefix + "_hits_total"),
		misses:      reg.Counter(prefix + "_misses_total"),
		negHits:     reg.Counter(prefix + "_negative_hits_total"),
		evictions:   reg.Counter(prefix + "_evictions_total"),
		shared:      reg.Counter(prefix + "_singleflight_shared_total"),
		staleServed: reg.Counter(prefix + "_stale_served_total"),
		prefetch:    reg.Counter(prefix + "_prefetch_total"),
		refreshFail: reg.Counter(prefix + "_refresh_fail_total"),
		entries:     reg.Gauge(prefix + "_entries"),
	}
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

// hitBlock is a private hit copy made in one allocation: the Message and
// room for its question and a short answer section.
type hitBlock struct {
	dnswire.Message
	q  [1]dnswire.Question
	rr [2]dnswire.ResourceRecord
}

// hitCopy is the one private copy of a hit: dst, allocated when nil,
// gets msg's header and question and every record with its TTL lowered
// by dec (floored at zero) and then capped at cap. An allocated copy
// with no TTL to edit shares msg's records instead.
func hitCopy(msg, dst *dnswire.Message, dec, cap uint32) *dnswire.Message {
	share := false
	if dst == nil {
		b := new(hitBlock)
		b.Questions, b.Answers = b.q[:0], b.rr[:0]
		dst, share = &b.Message, dec == 0 && cap == noCap
	}
	dst.Header = msg.Header
	dst.Questions = append(dst.Questions[:0], msg.Questions...)
	if share {
		dst.Answers, dst.Authorities, dst.Additionals = msg.Answers, msg.Authorities, msg.Additionals
		return dst
	}
	dst.Answers = copySection(dst.Answers, msg.Answers, dec, cap)
	dst.Authorities = copySection(dst.Authorities, msg.Authorities, dec, cap)
	dst.Additionals = copySection(dst.Additionals, msg.Additionals, dec, cap)
	return dst
}

func copySection(dst, rrs []dnswire.ResourceRecord, dec, cap uint32) []dnswire.ResourceRecord {
	dst = append(dst[:0], rrs...)
	for i := range dst {
		ttl := dst[i].TTL
		if ttl > dec {
			ttl -= dec
		} else {
			ttl = 0
		}
		if ttl > cap {
			ttl = cap
		}
		dst[i].TTL = ttl
	}
	return dst
}
