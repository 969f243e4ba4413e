package campaign

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dnswire"
)

// The append-based name formatter must reproduce the fmt.Sprintf
// output byte-for-byte: the names feed countrySeed-derived simulators
// and the golden CSVs, so any drift changes the dataset.
func TestNameScratchMatchesSprintf(t *testing.T) {
	s := new(nameScratch)
	codes := []string{"us", "br", "de", "zz"}
	seqs := []int{1, 2, 15, 16, 255, 4096, 0x0eadbeef, 0x7fffffff}
	for _, code := range codes {
		for _, seq := range seqs {
			want := fmt.Sprintf("%s-%08x-m.a.com.", code, seq)
			if got := s.format(code, seq); got != want {
				t.Errorf("format(%q, %d) = %q, want %q", code, seq, got, want)
			}
		}
	}
	// Values wider than eight hex digits follow %x's natural width.
	for _, v := range []uint64{0x1_0000_0000, 0xdead_beef_cafe} {
		want := fmt.Sprintf("%08x", v)
		if got := string(appendHex08(nil, v)); got != want {
			t.Errorf("appendHex08(%#x) = %q, want %q", v, got, want)
		}
	}
}

// A name handed out is never written again: names kept across several
// chunk rollovers still read what fmt.Sprintf says, and so does a
// string longer than a chunk.
func TestNameScratchSurvivesChunkRollover(t *testing.T) {
	s := new(nameScratch)
	const n = 2000 // 20-byte names: about ten 4 KiB chunks
	names := make([]string, n)
	for i := range names {
		names[i] = s.format("us", i)
	}
	long := make([]byte, 3*dnswire.ChunkSize)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	huge := s.names.Cut(long)
	after := s.format("br", 7)
	for i, got := range names {
		if want := fmt.Sprintf("%s-%08x-m.a.com.", "us", i); got != want {
			t.Fatalf("name %d reads %q after the rollovers, want %q", i, got, want)
		}
	}
	if huge != string(long) || after != "br-00000007-m.a.com." {
		t.Fatal("a string cut around an oversize one was overwritten")
	}
}

// Steady-state name formatting costs a share of a chunk: at most one
// allocation per twenty names.
func TestNameScratchAllocs(t *testing.T) {
	s := new(nameScratch)
	s.format("us", 1) // warm the buffer
	const n = 100000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seq := 2; seq < n+2; seq++ {
		_ = s.format("us", seq)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.05 {
		t.Fatalf("nameScratch.format allocates %.3f times per name, want <= 0.05", per)
	}
}
