// Package obs is the measurement harness's observability layer: a
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms with quantile snapshots).
//
// The paper's whole contribution is recovering per-phase timing from
// opaque observables; this package gives our own stack the same
// visibility a production resolver fleet would have. Design
// constraints, in order:
//
//   - The hot path (Counter.Add, Histogram.Observe) is allocation-free
//     and lock-free, so instrumenting a measurement loop cannot perturb
//     what it measures. Handles are resolved once via the Registry and
//     then touched with plain atomics.
//   - Snapshots are deterministic: metrics sort by name, histogram
//     buckets are fixed at registration, and every value is an additive
//     atomic — so a campaign run under a fixed seed produces the same
//     snapshot regardless of worker count or schedule.
//   - Zero dependencies beyond the standard library; the text
//     exposition (text.go) is a stable, greppable format rather than a
//     client-library wire protocol.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v int64 }

// Add increments the counter by n (n < 0 is ignored; counters are
// monotonic).
func (c *Counter) Add(n int64) {
	if n <= 0 {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { atomic.AddInt64(&c.v, 1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// Gauge is a value that can go up and down (stored as float64 bits).
// The zero value is ready to use.
type Gauge struct{ bits uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { atomic.StoreUint64(&g.bits, math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(atomic.LoadUint64(&g.bits)) }

// Histogram is a fixed-bucket latency histogram. Buckets are set at
// registration and never change; Observe is lock- and allocation-free.
type Histogram struct {
	// bounds are the inclusive upper bounds of each bucket, ascending.
	// Observations above the last bound land in the overflow bucket.
	bounds []time.Duration
	counts []int64 // len(bounds)+1; last is overflow
	sum    int64   // nanoseconds
	count  int64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	atomic.AddInt64(&h.counts[BucketIndex(h.bounds, d)], 1)
	atomic.AddInt64(&h.sum, int64(d))
	atomic.AddInt64(&h.count, 1)
}

// BucketIndex returns the bucket d falls in: bounds are ascending
// inclusive upper bounds, len(bounds) is the overflow bucket. The one
// search behind this package's atomic histograms and internal/sketch's
// plain ones, which keeps the two in lockstep on the same stream.
func BucketIndex(bounds []time.Duration, d time.Duration) int {
	// Manual binary search: sort.Search's closure can escape and the
	// hot path must not allocate.
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if d > bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.count) }

// Absorb folds pre-aggregated bucket counts into the histogram, as if
// every underlying observation had been passed to Observe. counts must
// have exactly len(bounds)+1 entries on the same bucket layout this
// histogram was registered with (the last entry is the overflow
// bucket); count is the total observation count and sum their exact
// total duration. The merge is integer addition per bucket, so
// absorbing is exact — a histogram fed via Absorb from mergeable
// sketches (internal/sketch) is indistinguishable from one fed the
// original stream. Safe for concurrent use with Observe.
func (h *Histogram) Absorb(counts []int64, count int64, sum time.Duration) error {
	if len(counts) != len(h.counts) {
		return fmt.Errorf("obs: Absorb got %d buckets, histogram has %d", len(counts), len(h.counts))
	}
	for i, n := range counts {
		if n < 0 {
			return fmt.Errorf("obs: Absorb bucket %d has negative count %d", i, n)
		}
		if n != 0 {
			atomic.AddInt64(&h.counts[i], n)
		}
	}
	atomic.AddInt64(&h.sum, int64(sum))
	atomic.AddInt64(&h.count, count)
	return nil
}

// latencyBuckets is the one latency bucket layout, built in integer
// microseconds so it is bit-identical on every platform: three
// sub-millisecond bounds, then four full decades (1ms-10s) on a
// {1, 1.25, 1.5, 2, 2.5, 3, 4, 5, 6, 8} grid, then the 10s decade
// truncated at 60s. Relative bucket width stays <= 33% above 1ms,
// which bounds the error of a bucket-interpolated quantile.
var latencyBuckets = func() []time.Duration {
	out := []time.Duration{100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond}
	mults := []int64{100, 125, 150, 200, 250, 300, 400, 500, 600, 800}
	for _, base := range []int64{1_000, 10_000, 100_000, 1_000_000} {
		for _, m := range mults {
			out = append(out, time.Duration(base*m/100)*time.Microsecond)
		}
	}
	for _, m := range mults[:9] { // 10s decade stops at 60s
		out = append(out, time.Duration(10_000_000*m/100)*time.Microsecond)
	}
	return out
}()

// DefaultLatencyBuckets returns the standard latency bucket layout
// (ascending inclusive upper bounds, 100µs to 60s; observations above
// the last bound land in an overflow bucket). It covers everything from
// a reused-connection loopback exchange to a retry loop that exhausted
// its backoff budget, and it is the layout internal/sketch histograms
// use, so a registry histogram absorbs sketch buckets exactly. The
// slice is a fresh copy.
func DefaultLatencyBuckets() []time.Duration {
	return append([]time.Duration(nil), latencyBuckets...)
}

// Registry is a named collection of metrics. Get-or-create lookups
// take a mutex; hold the returned handles rather than re-looking up on
// a hot path. The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. bounds must be ascending; nil means
// DefaultLatencyBuckets. Later calls reuse the existing histogram and
// ignore bounds (buckets are fixed at registration so snapshots stay
// comparable).
func (r *Registry) Histogram(name string, bounds []time.Duration) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = latencyBuckets
		}
		b := make([]time.Duration, len(bounds))
		copy(b, bounds)
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
			}
		}
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Identity is an accounting identity over counters: every event counted
// in one of Left when it arrives is, once settled, counted in exactly
// one of Right. A component declares its identities beside its counters.
type Identity struct {
	Name        string
	Left, Right []string
}

// Check returns each identity's Left − Right on reg, which is 0 on a
// quiescent registry. On a live one the difference is what is in
// flight: Check reads every Right counter before any Left counter, and
// an event is counted on the left before it settles on the right, so a
// negative difference is a broken identity. A name reg has not
// registered reads as 0; Check registers nothing.
func Check(reg *Registry, ids []Identity) []int64 {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	sum := func(names []string) (n int64) {
		for _, name := range names {
			if c := reg.counters[name]; c != nil {
				n += c.Value()
			}
		}
		return n
	}
	diff := make([]int64, len(ids))
	for i, id := range ids {
		diff[i] = -sum(id.Right)
	}
	for i, id := range ids {
		diff[i] += sum(id.Left)
	}
	return diff
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Value int64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string
	Value float64
}

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound; the overflow
	// bucket has UpperBound < 0.
	UpperBound time.Duration
	// Count is the number of observations in this bucket (not
	// cumulative).
	Count int64
}

// HistogramValue is one histogram in a snapshot, with quantiles
// estimated from the fixed buckets.
type HistogramValue struct {
	Name    string
	Count   int64
	Sum     time.Duration
	Buckets []Bucket
	// P50, P95, and P99 are bucket-interpolated quantile estimates
	// (zero when the histogram is empty).
	P50, P95, P99 time.Duration
}

// Snapshot is a point-in-time copy of a registry, sorted by name so
// equal registry states yield equal snapshots.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot copies the registry's current state. Each individual value
// is read atomically; the snapshot as a whole is consistent when no
// writer is concurrently active (the deterministic-campaign case).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// snapshot copies one histogram and estimates its quantiles.
func (h *Histogram) snapshot(name string) HistogramValue {
	v := HistogramValue{
		Name:    name,
		Count:   atomic.LoadInt64(&h.count),
		Sum:     time.Duration(atomic.LoadInt64(&h.sum)),
		Buckets: make([]Bucket, len(h.counts)),
	}
	for i := range h.counts {
		ub := time.Duration(-1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		v.Buckets[i] = Bucket{UpperBound: ub, Count: atomic.LoadInt64(&h.counts[i])}
	}
	v.P50 = v.Quantile(0.50)
	v.P95 = v.Quantile(0.95)
	v.P99 = v.Quantile(0.99)
	return v
}

// Quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation within the bucket that contains it, the standard
// fixed-bucket estimator. Observations in the overflow bucket are
// attributed to the last finite bound.
func (v HistogramValue) Quantile(q float64) time.Duration {
	return BucketQuantile(q, v.Count, len(v.Buckets), func(i int) (time.Duration, int64) {
		return v.Buckets[i].UpperBound, v.Buckets[i].Count
	})
}

// BucketQuantile is the estimator behind HistogramValue.Quantile over
// any layout: total observations in n ascending buckets, bucket(i)
// returning the i'th one's inclusive upper bound (negative for the
// overflow bucket) and count. internal/sketch estimates with it too, so
// campaign metrics and sketch-derived quantiles agree exactly.
func BucketQuantile(q float64, total int64, n int, bucket func(i int) (upper time.Duration, count int64)) time.Duration {
	if total == 0 || q <= 0 || q >= 1 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	var lower time.Duration
	for i := 0; i < n; i++ {
		upper, count := bucket(i)
		prev := cum
		cum += count
		if float64(cum) >= rank {
			if upper < 0 {
				// Overflow: no finite upper edge to interpolate
				// toward; report the last finite bound.
				return lower
			}
			frac := (rank - float64(prev)) / float64(count)
			return lower + time.Duration(frac*float64(upper-lower))
		}
		if upper >= 0 {
			lower = upper
		}
	}
	return lower
}
