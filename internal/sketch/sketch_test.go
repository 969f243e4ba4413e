package sketch

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func randDurations(rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		// Log-uniform over ~200µs..20s, plus occasional overflow past 60s.
		d := time.Duration(math.Exp(rng.Float64()*11.5) * float64(200*time.Microsecond))
		if rng.Intn(50) == 0 {
			d = 60*time.Second + time.Duration(rng.Intn(1e9))
		}
		out[i] = d
	}
	return out
}

// TestMergeExact is the mergeability contract: merging the histograms
// of two streams yields exactly the histogram of the concatenated
// stream, in every accumulator, regardless of split point.
func TestMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		all := randDurations(rng, 1+rng.Intn(500))
		cut := rng.Intn(len(all) + 1)

		whole := NewHistogram()
		for _, d := range all {
			whole.Observe(d)
		}
		a, b := NewHistogram(), NewHistogram()
		for _, d := range all[:cut] {
			a.Observe(d)
		}
		for _, d := range all[cut:] {
			b.Observe(d)
		}
		merged := NewHistogram()
		merged.Merge(a)
		merged.Merge(b)

		if merged.count != whole.count || merged.sum != whole.sum {
			t.Fatalf("trial %d cut %d: merged (n=%d sum=%d) != whole (n=%d sum=%d)",
				trial, cut, merged.count, merged.sum, whole.count, whole.sum)
		}
		if !slices.Equal(merged.counts, whole.counts) {
			t.Fatalf("trial %d cut %d: buckets %v != %v", trial, cut, merged.counts, whole.counts)
		}
	}
}

func TestMergeEmptyAndNil(t *testing.T) {
	h := NewHistogram()
	h.Observe(5 * time.Millisecond)
	h.Merge(nil)
	h.Merge(NewHistogram())
	if h.count != 1 || h.sum != int64(5*time.Millisecond) {
		t.Fatalf("merge of empty perturbed histogram: n=%d sum=%d", h.count, h.sum)
	}
	empty := NewHistogram()
	empty.Merge(h)
	if empty.count != 1 || !slices.Equal(empty.counts, h.counts) {
		t.Fatalf("merge into empty lost state: n=%d", empty.count)
	}
}

func TestObserveClampAndExactStats(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second) // clamps to 0 like obs.Histogram.Observe
	h.Observe(2 * time.Millisecond)
	h.Observe(8 * time.Millisecond)
	if h.count != 3 || h.sum != int64(10*time.Millisecond) {
		t.Fatalf("n=%d sum=%d", h.count, h.sum)
	}
	if h.counts[0] != 1 {
		t.Fatalf("the clamped observation is not in the first bucket: %v", h.counts)
	}
}
