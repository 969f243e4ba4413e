package sketch

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

func TestLatencyBoundsShape(t *testing.T) {
	b := obs.DefaultLatencyBuckets()
	if len(b) != 52 {
		t.Fatalf("canonical layout has %d bounds, want 52", len(b))
	}
	if b[0] != 100*time.Microsecond || b[len(b)-1] != 60*time.Second {
		t.Fatalf("bounds span %v..%v, want 100µs..60s", b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v <= %v", i, b[i], b[i-1])
		}
		// The accuracy contract: relative bucket width <= 33% above the
		// sub-millisecond floor.
		if b[i-1] >= time.Millisecond {
			ratio := float64(b[i]) / float64(b[i-1])
			if ratio > 1.34 {
				t.Fatalf("bucket %d too wide: %v -> %v (ratio %.2f)", i, b[i-1], b[i], ratio)
			}
		}
	}
	// Mutating the returned slice must not corrupt the canonical layout.
	b[0] = time.Hour
	if obs.DefaultLatencyBuckets()[0] != 100*time.Microsecond {
		t.Fatal("DefaultLatencyBuckets returned shared storage")
	}
}

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

// TestMergeExact is the mergeability contract: merging the sketches of
// two streams yields exactly the sketch of the concatenated stream, in
// every accumulator, regardless of split point.
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

		if merged.Count() != whole.Count() || merged.Sum() != whole.Sum() ||
			merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Fatalf("trial %d cut %d: merged (n=%d sum=%v min=%v max=%v) != whole (n=%d sum=%v min=%v max=%v)",
				trial, cut, merged.Count(), merged.Sum(), merged.Min(), merged.Max(),
				whole.Count(), whole.Sum(), whole.Min(), whole.Max())
		}
		mc, wc := merged.BucketCounts(), whole.BucketCounts()
		for i := range mc {
			if mc[i] != wc[i] {
				t.Fatalf("trial %d: bucket %d differs: %d != %d", trial, i, mc[i], wc[i])
			}
		}
		for _, q := range []float64{0.1, 0.5, 0.95, 0.99} {
			if merged.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("trial %d q=%v: %v != %v", trial, q, merged.Quantile(q), whole.Quantile(q))
			}
		}
	}
}

func TestMergeEmptyAndNil(t *testing.T) {
	h := NewHistogram()
	h.Observe(5 * time.Millisecond)
	h.Merge(nil)
	h.Merge(NewHistogram())
	if h.Count() != 1 || h.Min() != 5*time.Millisecond || h.Max() != 5*time.Millisecond {
		t.Fatalf("merge of empty perturbed histogram: n=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	empty := NewHistogram()
	empty.Merge(h)
	if empty.Count() != 1 || empty.Min() != 5*time.Millisecond {
		t.Fatalf("merge into empty lost state: n=%d min=%v", empty.Count(), empty.Min())
	}
	if e := NewHistogram(); e.Count() != 0 || e.Min() != 0 || e.Max() != 0 || e.Mean() != 0 || e.Quantile(0.5) != 0 {
		t.Fatal("empty histogram accessors not zero")
	}
}

func TestObserveClampAndExactStats(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second) // clamps to 0 like obs.Histogram.Observe
	h.Observe(2 * time.Millisecond)
	h.Observe(8 * time.Millisecond)
	if h.Count() != 3 || h.Sum() != 10*time.Millisecond {
		t.Fatalf("n=%d sum=%v", h.Count(), h.Sum())
	}
	if h.Min() != 0 || h.Max() != 8*time.Millisecond {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	if h.Mean() != 10*time.Millisecond/3 {
		t.Fatalf("mean=%v", h.Mean())
	}
}

// TestQuantileBucketAccuracy pins the accuracy contract: the bucket-
// interpolated quantile lies within one bucket of the bucket holding
// the true sample quantile. (The ±1-bucket slack covers the rank
// convention difference: the sketch uses rank q*n like obs, while
// stats.Quantile interpolates at q*(n-1) — at a bucket boundary they
// can pick adjacent samples.)
func TestQuantileBucketAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := obs.DefaultLatencyBuckets()
	for trial := 0; trial < 10; trial++ {
		samples := randDurations(rng, 200+rng.Intn(800))
		h := NewHistogram()
		xs := make([]float64, len(samples))
		for i, d := range samples {
			h.Observe(d)
			xs[i] = float64(d)
		}
		for _, q := range []float64{0.25, 0.5, 0.9, 0.95} {
			truth, err := stats.Quantile(xs, q)
			if err != nil {
				t.Fatal(err)
			}
			// Widen the true quantile to its bucket plus one bucket of
			// slack on each side.
			bi := len(bounds) - 1
			for i, ub := range bounds {
				if time.Duration(truth) <= ub {
					bi = i
					break
				}
			}
			lower, upper := time.Duration(0), bounds[len(bounds)-1]
			if bi >= 2 {
				lower = bounds[bi-2]
			}
			if bi+1 < len(bounds) {
				upper = bounds[bi+1]
			}
			got := h.Quantile(q)
			if got < lower || got > upper {
				t.Fatalf("trial %d q=%v: estimate %v outside [%v, %v] (truth %v)",
					trial, q, got, lower, upper, time.Duration(truth))
			}
		}
	}
}

// TestQuantileMatchesObs pins that sketch and obs quantiles are the
// same estimator: a sketch and an obs histogram on the sketch bounds
// fed the same stream report identical quantiles — and an obs
// histogram that Absorbs the sketch's buckets is indistinguishable
// from one fed the raw stream.
func TestQuantileMatchesObs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	samples := randDurations(rng, 500)

	h := NewHistogram()
	reg := obs.NewRegistry()
	direct := reg.Histogram("direct", obs.DefaultLatencyBuckets())
	for _, d := range samples {
		h.Observe(d)
		direct.Observe(d)
	}
	absorbed := reg.Histogram("absorbed", obs.DefaultLatencyBuckets())
	if err := absorbed.Absorb(h.BucketCounts(), h.Count(), h.Sum()); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if len(snap.Histograms) != 2 {
		t.Fatalf("snapshot has %d histograms", len(snap.Histograms))
	}
	for _, hv := range snap.Histograms {
		if hv.Count != h.Count() || hv.Sum != h.Sum() {
			t.Fatalf("%s: n=%d sum=%v vs sketch n=%d sum=%v", hv.Name, hv.Count, hv.Sum, h.Count(), h.Sum())
		}
		for _, q := range []float64{0.1, 0.5, 0.95, 0.99} {
			if hv.Quantile(q) != h.Quantile(q) {
				t.Fatalf("%s q=%v: obs %v != sketch %v", hv.Name, q, hv.Quantile(q), h.Quantile(q))
			}
		}
	}
}

func TestAbsorbValidation(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("x", obs.DefaultLatencyBuckets())
	if err := h.Absorb(make([]int64, 3), 0, 0); err == nil {
		t.Fatal("wrong-length Absorb accepted")
	}
	bad := make([]int64, len(obs.DefaultLatencyBuckets())+1) // the layout plus its overflow bucket
	bad[0] = -1
	if err := h.Absorb(bad, -1, 0); err == nil {
		t.Fatal("negative bucket count accepted")
	}
}

func TestSetKeysMergeAndTouch(t *testing.T) {
	a := NewSet()
	a.Observe("doh", 10*time.Millisecond)
	a.Observe("doh", 20*time.Millisecond)
	a.Touch("silent")
	b := NewSet()
	b.Observe("doh", 30*time.Millisecond)
	b.Observe("do53", 5*time.Millisecond)

	a.Merge(b)
	a.Merge(nil)
	keys := a.Keys()
	if len(keys) != 3 || keys[0] != "do53" || keys[1] != "doh" || keys[2] != "silent" {
		t.Fatalf("keys = %v", keys)
	}
	if a.Len() != 3 {
		t.Fatalf("len = %d", a.Len())
	}
	if h := a.Get("doh"); h.Count() != 3 || h.Max() != 30*time.Millisecond {
		t.Fatalf("merged doh: n=%d max=%v", h.Count(), h.Max())
	}
	if h := a.Get("silent"); h == nil || h.Count() != 0 {
		t.Fatal("touched key lost or non-empty")
	}
	if a.Get("missing") != nil {
		t.Fatal("Get of missing key non-nil")
	}
}
