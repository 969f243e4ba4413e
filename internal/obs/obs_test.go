package obs

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // monotonic: ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("queries_total") != c {
		t.Fatal("Counter did not return the same handle for the same name")
	}
	g := r.Gauge("inflight")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []time.Duration{
		10 * time.Millisecond, 100 * time.Millisecond, time.Second,
	})
	for i := 0; i < 50; i++ {
		h.Observe(5 * time.Millisecond) // bucket 0
	}
	for i := 0; i < 40; i++ {
		h.Observe(50 * time.Millisecond) // bucket 1
	}
	for i := 0; i < 9; i++ {
		h.Observe(500 * time.Millisecond) // bucket 2
	}
	h.Observe(10 * time.Second) // overflow
	h.Observe(-time.Second)     // clamps to zero, bucket 0

	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms, want 1", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	if hv.Count != 101 {
		t.Fatalf("count = %d, want 101", hv.Count)
	}
	wantCounts := []int64{51, 40, 9, 1}
	for i, b := range hv.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if hv.Buckets[3].UpperBound >= 0 {
		t.Fatal("overflow bucket should have negative upper bound")
	}
	// Cumulative counts are 51/91/100/101, so p50 (rank 50.5) falls in
	// the first bucket (0..10ms) and p95 (rank 95.95) and p99 (rank
	// 99.99) both fall in the third (100ms..1s), p99 above p95.
	if hv.P50 <= 0 || hv.P50 > 10*time.Millisecond {
		t.Errorf("p50 = %v, want in (0, 10ms]", hv.P50)
	}
	if hv.P95 <= 100*time.Millisecond || hv.P95 > time.Second {
		t.Errorf("p95 = %v, want in (100ms, 1s]", hv.P95)
	}
	if hv.P99 <= hv.P95 || hv.P99 > time.Second {
		t.Errorf("p99 = %v, want in (p95, 1s]", hv.P99)
	}
}

func TestHistogramReusedIgnoresNewBounds(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("h", []time.Duration{time.Millisecond})
	b := r.Histogram("h", []time.Duration{time.Second, time.Minute})
	if a != b {
		t.Fatal("same name must return the same histogram")
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", []time.Duration{time.Second, time.Millisecond})
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		// Insertion order differs between the two builds.
		names := []string{"zeta", "alpha", "mid"}
		for _, n := range names {
			r.Counter("c_" + n).Add(3)
			r.Gauge("g_" + n).Set(1)
			r.Histogram("h_"+n, nil).Observe(time.Millisecond)
		}
		return r.Snapshot()
	}
	buildRev := func() Snapshot {
		r := NewRegistry()
		names := []string{"mid", "zeta", "alpha"}
		for _, n := range names {
			r.Counter("c_" + n).Add(3)
			r.Gauge("g_" + n).Set(1)
			r.Histogram("h_"+n, nil).Observe(time.Millisecond)
		}
		return r.Snapshot()
	}
	if !reflect.DeepEqual(build(), buildRev()) {
		t.Fatal("snapshots differ across registration orders")
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries_total").Add(42)
	r.Gauge("scale").Set(0.5)
	h := r.Histogram("lat", []time.Duration{10 * time.Millisecond})
	h.Observe(5 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"counter queries_total 42\n",
		"gauge scale 0.5\n",
		"histogram lat count 1 sum_ms 5.000",
		"histogram_bucket lat le_ms 10 count 1\n",
		"histogram_bucket lat le_ms +inf count 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat", nil)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestQuantileEmptyAndEdge(t *testing.T) {
	var hv HistogramValue
	if hv.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	r := NewRegistry()
	h := r.Histogram("one", []time.Duration{time.Millisecond})
	h.Observe(2 * time.Second) // only the overflow bucket
	s := r.Snapshot().Histograms[0]
	if got := s.Quantile(0.5); got != time.Millisecond {
		t.Errorf("overflow-only p50 = %v, want last finite bound 1ms", got)
	}
}

func TestLatencyBoundsShape(t *testing.T) {
	b := DefaultLatencyBuckets()
	if len(b) != 52 {
		t.Fatalf("default layout has %d bounds, want 52", len(b))
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
	// Mutating the returned slice must not corrupt the default layout.
	b[0] = time.Hour
	if DefaultLatencyBuckets()[0] != 100*time.Microsecond {
		t.Fatal("DefaultLatencyBuckets returned shared storage")
	}
}

// TestQuantileBucketAccuracy pins the accuracy contract: the bucket-
// interpolated quantile of a default-layout histogram lies within one
// bucket of the bucket holding the true sample quantile. (The ±1-bucket
// slack covers the rank convention difference: Quantile uses rank q*n,
// while stats.Quantile interpolates at q*(n-1) — at a bucket boundary
// they can pick adjacent samples.)
func TestQuantileBucketAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := DefaultLatencyBuckets()
	for trial := 0; trial < 10; trial++ {
		reg := NewRegistry()
		h := reg.Histogram("latency", nil)
		xs := make([]float64, 200+rng.Intn(800))
		for i := range xs {
			// Log-uniform over ~200µs..20s, plus occasional overflow
			// past 60s.
			d := time.Duration(math.Exp(rng.Float64()*11.5) * float64(200*time.Microsecond))
			if rng.Intn(50) == 0 {
				d = 60*time.Second + time.Duration(rng.Intn(1e9))
			}
			h.Observe(d)
			xs[i] = float64(d)
		}
		v := reg.Snapshot().Histograms[0]
		for _, q := range []float64{0.25, 0.5, 0.9, 0.95} {
			truth, err := stats.Quantile(xs, q)
			if err != nil {
				t.Fatal(err)
			}
			// Widen the true quantile to its bucket plus one bucket of
			// slack on each side.
			bi := min(BucketIndex(bounds, time.Duration(truth)), len(bounds)-1)
			lower, upper := time.Duration(0), bounds[len(bounds)-1]
			if bi >= 2 {
				lower = bounds[bi-2]
			}
			if bi+1 < len(bounds) {
				upper = bounds[bi+1]
			}
			if got := v.Quantile(q); got < lower || got > upper {
				t.Fatalf("trial %d q=%v: estimate %v outside [%v, %v] (truth %v)",
					trial, q, got, lower, upper, time.Duration(truth))
			}
		}
	}
}
