package smart

import (
	"sync"
	"sync/atomic"
)

// The winner table remembers, per destination, which candidate
// transport answered fastest and how fast every candidate has been
// lately. It is the steady-state hot path: after the first race, every
// query does one shard read-lock, one map lookup, and a handful of
// atomic loads — no allocations, no writes besides atomics — before
// taking the remembered transport directly. All mutable per-entry
// state is atomic so readers never upgrade to the write lock; the
// write lock exists only to insert entries.

// entry is one destination's racing memory. Fields are atomics updated
// concurrently by queries, races, and background probes.
type entry struct {
	// winner is the remembered candidate index; -1 means no winner
	// (race on next query).
	winner atomic.Int32
	// wonAt is the UnixNano timestamp of the last win or switch; the
	// decay horizon (SmartOptions.ReRaceAfter) and the winner-age
	// histogram read it.
	wonAt atomic.Int64
	// lastProbe is the UnixNano timestamp of the last background probe
	// launch for this destination (rate limit).
	lastProbe atomic.Int64
	// probing is the per-destination singleflight flag: at most one
	// background probe in flight per destination.
	probing atomic.Bool
	// probeCursor round-robins which losing candidate the next probe
	// measures.
	probeCursor atomic.Uint32
	// scores holds each candidate's latency score for this destination.
	scores []score
}

// score is one candidate's memory for one destination.
type score struct {
	// ewma is the decayed latency score in microseconds; 0 means no
	// sample yet.
	ewma atomic.Int64
	// probes counts the background probe samples folded into ewma.
	probes atomic.Int32
}

// loadEwma returns candidate i's score in microseconds (0 = unknown).
func (e *entry) loadEwma(i int) int64 { return e.scores[i].ewma.Load() }

// observeEwma folds one latency sample (microseconds) into candidate
// i's score: first sample is taken verbatim, later samples with weight
// alpha. Lock-free CAS loop; concurrent observers both land, order
// unspecified (the score is a heuristic, not an accounting figure).
func (e *entry) observeEwma(i int, micros int64, alpha float64) {
	if micros < 1 {
		micros = 1 // keep 0 meaning "no sample"
	}
	for {
		old := e.scores[i].ewma.Load()
		var next int64
		if old == 0 {
			next = micros
		} else {
			next = old + int64(alpha*float64(micros-old))
			if next < 1 {
				next = 1
			}
		}
		if e.scores[i].ewma.CompareAndSwap(old, next) {
			return
		}
	}
}

// tableShard is one lock-striped slice of the winner table.
type tableShard struct {
	mu sync.RWMutex
	m  map[string]*entry
}

// table is the sharded winner map. Shard count is a power of two so
// the hash masks instead of dividing.
type table struct {
	shards []tableShard
	mask   uint64
	// maxPerShard caps entries per shard; the global maxDestinations
	// cap distributed evenly. Full shards stop remembering (queries to
	// new destinations keep racing) rather than evicting — losing a
	// hot destination's memory to a scan would be worse than racing
	// the tail.
	maxPerShard int
	size        atomic.Int64
}

func newTable() *table {
	t := &table{
		shards:      make([]tableShard, tableShards),
		mask:        tableShards - 1,
		maxPerShard: maxDestinations / tableShards,
	}
	for i := range t.shards {
		t.shards[i].m = make(map[string]*entry)
	}
	return t
}

// hashKey is FNV-1a over the key bytes, allocation-free.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// get returns the destination's entry or nil. Hot path: read lock +
// map lookup only.
func (t *table) get(key string) *entry {
	sh := &t.shards[hashKey(key)&t.mask]
	sh.mu.RLock()
	e := sh.m[key]
	sh.mu.RUnlock()
	return e
}

// insert returns the destination's entry, creating it if the shard has
// room. nil means the table is full for this shard: the caller races
// without remembering.
func (t *table) insert(key string, candidates int) *entry {
	sh := &t.shards[hashKey(key)&t.mask]
	sh.mu.Lock()
	e := sh.m[key]
	if e == nil {
		if len(sh.m) >= t.maxPerShard {
			sh.mu.Unlock()
			return nil
		}
		e = &entry{scores: make([]score, candidates)}
		e.winner.Store(-1)
		sh.m[key] = e
		t.size.Add(1)
	}
	sh.mu.Unlock()
	return e
}

// len reports the total remembered destinations.
func (t *table) len() int64 { return t.size.Load() }
