package campaign

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// countrySeed hashes the bytes fmt.Sprintf("%d/%s", seed, code) would
// write, built on the stack: every country's stream, and so every
// journal record and golden CSV, follows from those 64 bits.
func TestCountrySeedMatchesFNV(t *testing.T) {
	seeds := []int64{0, 1, -1, 2021, math.MinInt64, math.MaxInt64}
	codes := []string{"US", "US/chaos", ""}
	for _, seed := range seeds {
		for _, code := range codes {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d/%s", seed, code)
			want := int64(h.Sum64() & 0x7fffffffffffffff)
			if got := countrySeed(seed, code); got != want {
				t.Errorf("countrySeed(%d, %q) = %d, want %d", seed, code, got, want)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		countrySeed(math.MinInt64, "US/chaos")
	})
	if allocs != 0 {
		t.Errorf("countrySeed allocates %.0f times per call, want 0", allocs)
	}
}
