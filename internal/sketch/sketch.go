// Package sketch provides the mergeable, constant-memory aggregates
// the distributed campaign scale-out is built on: fixed-bucket latency
// histograms with an exact merge, plus streaming count/sum/min/max.
//
// The paper's campaign held every sample in memory and computed
// quantiles at export time; that caps a single process at the paper's
// ~22k clients. A sketch replaces the sample list with a fixed number
// of integer accumulators, so N shard processes (or one process at any
// client scale) aggregate in O(buckets) memory and a reducer combines
// their sketches without approximation error beyond the bucket layout
// itself:
//
//   - Count, Sum, Min, Max (and therefore Mean) are exact, and merging
//     two sketches yields exactly the sketch of the concatenated
//     sample: every accumulator is an integer sum (or min/max), so the
//     merge is associative, commutative, and schedule-independent.
//   - Quantiles are bucket-interpolated: the estimate lands within one
//     bucket of the true sample quantile, so the error is bounded by
//     roughly one bucket width (the canonical layout keeps relative
//     bucket width <= 33%, typically ~20%).
//     The estimator is the one obs.HistogramValue uses
//     (obs.BucketQuantile), so campaign metrics and sketch-derived
//     quantiles agree exactly when fed the same observations.
//
// Histograms share one canonical bucket layout, the registry's
// default (obs.DefaultLatencyBuckets), which is what makes any two
// sketches mergeable by construction and lets internal/obs histograms
// absorb sketch buckets exactly (see obs.Histogram.Absorb).
// docs/scaleout.md documents the accuracy contract.
//
// Sketches are not safe for concurrent use; the campaign folds each
// finished country into its one set under a lock.
package sketch

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// canonicalBounds is every Histogram's bucket layout, which is what
// guarantees any two sketches merge exactly.
var canonicalBounds = obs.DefaultLatencyBuckets()

// Histogram is a mergeable fixed-bucket latency histogram with exact
// streaming count/sum/min/max. The zero value is NOT ready; construct
// with NewHistogram.
type Histogram struct {
	counts []int64 // len(canonicalBounds)+1; last is overflow
	count  int64
	sum    int64 // nanoseconds
	min    int64 // nanoseconds; valid only when count > 0
	max    int64 // nanoseconds; valid only when count > 0
}

// NewHistogram returns an empty histogram on the canonical layout.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, len(canonicalBounds)+1)}
}

// Observe records one duration. Negative durations clamp to zero
// (matching obs.Histogram.Observe, so the two stay in lockstep when
// fed the same stream).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[obs.BucketIndex(canonicalBounds, d)]++
	h.sum += int64(d)
	if h.count == 0 || int64(d) < h.min {
		h.min = int64(d)
	}
	if h.count == 0 || int64(d) > h.max {
		h.max = int64(d)
	}
	h.count++
}

// Merge folds o into h. Because both sides share the canonical layout
// and every accumulator is an integer sum (or min/max), the result is
// exactly the histogram of the concatenated observation streams,
// independent of merge order or grouping.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i, n := range o.counts {
		h.counts[i] += n
	}
	h.sum += o.sum
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Min returns the exact minimum observation (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the exact maximum observation (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// BucketCounts returns a copy of the per-bucket counts (the last entry
// is the overflow bucket), in the shape obs.Histogram.Absorb expects.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation within the bucket containing it — the estimator
// obs.HistogramValue.Quantile applies, so the two never disagree on the
// same data. Observations in the overflow bucket are attributed to the
// last finite bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	return obs.BucketQuantile(q, h.count, len(h.counts), func(i int) (time.Duration, int64) {
		if i == len(canonicalBounds) {
			return -1, h.counts[i]
		}
		return canonicalBounds[i], h.counts[i]
	})
}

// Set is a keyed collection of histograms — the campaign keys them by
// metric name ("campaign_doh_cloudflare_ms", ...). Not safe for
// concurrent use.
type Set struct {
	m map[string]*Histogram
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{m: make(map[string]*Histogram)} }

// Observe records d under key, creating the histogram on first use.
func (s *Set) Observe(key string, d time.Duration) {
	s.Touch(key).Observe(d)
}

// Touch returns the histogram under key, creating an empty one when
// missing (used to register a key that may never observe — e.g. a
// country histogram for a country whose every measurement was
// discarded — so merged and unsharded sets expose identical keys).
func (s *Set) Touch(key string) *Histogram {
	h, ok := s.m[key]
	if !ok {
		h = NewHistogram()
		s.m[key] = h
	}
	return h
}

// Get returns the histogram under key, or nil.
func (s *Set) Get(key string) *Histogram { return s.m[key] }

// Keys returns the registered keys, sorted.
func (s *Set) Keys() []string {
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered keys.
func (s *Set) Len() int { return len(s.m) }

// Merge folds o's histograms into s key by key, creating missing keys.
// Exact for the same reason Histogram.Merge is.
func (s *Set) Merge(o *Set) {
	if o == nil {
		return
	}
	for k, h := range o.m {
		s.Touch(k).Merge(h)
	}
}
