package cachestudy

import (
	"strings"
	"testing"

	"repro/internal/anycast"
)

func TestRunBothArchitectures(t *testing.T) {
	res, err := Run(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	dist, cent := res[0], res[1]
	if dist.Architecture != "do53-distributed" || cent.Architecture != "doh-centralized" {
		t.Fatalf("architectures = %s / %s", dist.Architecture, cent.Architecture)
	}
	if dist.Queries != cent.Queries || dist.Queries == 0 {
		t.Fatalf("workloads differ: %d vs %d", dist.Queries, cent.Queries)
	}
	for _, r := range res {
		if r.HitRatio <= 0 || r.HitRatio >= 1 {
			t.Errorf("%s: hit ratio %f", r.Architecture, r.HitRatio)
		}
		if r.MeanMs <= 0 || r.MedianMs <= 0 {
			t.Errorf("%s: latencies %f/%f", r.Architecture, r.MeanMs, r.MedianMs)
		}
		if r.Caches <= 0 {
			t.Errorf("%s: caches %d", r.Architecture, r.Caches)
		}
		if !strings.Contains(r.String(), r.Architecture) {
			t.Errorf("String() = %q", r.String())
		}
	}
}

func TestCentralizationImprovesHitRatio(t *testing.T) {
	// The paper's intuition: DoH is more centralized than Do53, so a
	// shared PoP cache aggregates more clients per cache and hits
	// more often — when the provider's routing concentrates clients.
	cfg := DefaultConfig(2)
	cfg.Provider = anycast.Google // 26 PoPs: strong aggregation
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, cent := res[0], res[1]
	if cent.Caches >= dist.Caches {
		t.Errorf("centralized caches (%d) >= distributed (%d)", cent.Caches, dist.Caches)
	}
	if cent.HitRatio <= dist.HitRatio {
		t.Errorf("centralized hit ratio %.3f <= distributed %.3f", cent.HitRatio, dist.HitRatio)
	}
}

func TestTTLBoundsHits(t *testing.T) {
	// With a 1-second TTL over a 30-minute span, cached entries
	// expire before reuse and both architectures collapse to misses.
	cfg := DefaultConfig(3)
	cfg.TTLSeconds = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.HitRatio > 0.08 {
			t.Errorf("%s: hit ratio %.3f with 1s TTL, want near zero", r.Architecture, r.HitRatio)
		}
	}
	long := DefaultConfig(3)
	long.TTLSeconds = 86400
	resLong, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if resLong[i].HitRatio <= res[i].HitRatio {
			t.Errorf("%s: day-long TTL hit ratio %.3f not above 1s TTL %.3f",
				res[i].Architecture, resLong[i].HitRatio, res[i].HitRatio)
		}
	}
}

func TestSkewIncreasesHits(t *testing.T) {
	flat := DefaultConfig(4)
	flat.ZipfS = 1.05
	skewed := DefaultConfig(4)
	skewed.ZipfS = 2.2
	rFlat, err := Run(flat)
	if err != nil {
		t.Fatal(err)
	}
	rSkew, err := Run(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if rSkew[0].HitRatio <= rFlat[0].HitRatio {
		t.Errorf("skewed hit ratio %.3f <= flat %.3f", rSkew[0].HitRatio, rFlat[0].HitRatio)
	}
}

func TestHitsAreCheaperThanMisses(t *testing.T) {
	// Effective median latency must drop as the hit ratio rises.
	miss := DefaultConfig(5)
	miss.TTLSeconds = 1
	hit := DefaultConfig(5)
	hit.TTLSeconds = 86400
	rMiss, err := Run(miss)
	if err != nil {
		t.Fatal(err)
	}
	rHit, err := Run(hit)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rMiss {
		if rHit[i].MedianMs >= rMiss[i].MedianMs {
			t.Errorf("%s: median with hits %.1f >= all-miss %.1f",
				rMiss[i].Architecture, rHit[i].MedianMs, rMiss[i].MedianMs)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(6)
	bad.ZipfS = 0.9
	if _, err := Run(bad); err == nil {
		t.Error("ZipfS <= 1 accepted")
	}
	bad4 := DefaultConfig(6)
	bad4.Provider = anycast.ProviderID("nonexistent")
	if _, err := Run(bad4); err == nil {
		t.Error("unknown provider accepted")
	}
}

func TestDeterministic(t *testing.T) {
	r1, err := Run(DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("run %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}
