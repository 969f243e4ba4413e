// Package sketch is a plain fixed-bucket latency histogram with an
// exact merge, on obs.DefaultLatencyBuckets' layout. Nothing in the
// module's programs uses it: the campaign folds its latency
// observations straight into its obs.Registry's histograms. It stays
// only because bench/rungs.go times NewHistogram, Observe and Merge in
// its sketch.* rungs, and it goes once the benchmark drops those rungs.
//
// A Histogram is not safe for concurrent use.
package sketch

import (
	"time"

	"repro/internal/obs"
)

// canonicalBounds is every Histogram's bucket layout, which is what
// guarantees any two histograms merge exactly.
var canonicalBounds = obs.DefaultLatencyBuckets()

// Histogram is a mergeable fixed-bucket latency histogram with an exact
// count and sum. The zero value is NOT ready; construct with
// NewHistogram.
type Histogram struct {
	counts []int64 // len(canonicalBounds)+1; last is overflow
	count  int64
	sum    int64 // nanoseconds
}

// NewHistogram returns an empty histogram on the canonical layout.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, len(canonicalBounds)+1)}
}

// Observe records one duration. Negative durations clamp to zero, as
// obs.Histogram.Observe clamps them.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[obs.BucketIndex(canonicalBounds, d)]++
	h.sum += int64(d)
	h.count++
}

// Merge folds o into h. Because both sides share the canonical layout
// and every accumulator is an integer sum, the result is exactly the
// histogram of the concatenated observation streams, independent of
// merge order or grouping.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i, n := range o.counts {
		h.counts[i] += n
	}
	h.sum += o.sum
	h.count += o.count
}
