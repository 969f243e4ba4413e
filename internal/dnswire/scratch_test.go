package dnswire

import (
	"bytes"
	"fmt"
	"testing"
)

// TestStringChunksContract holds StringChunks to its rule: a string once
// handed out never changes, through thousands of later cuts, the chunk
// rollovers among them and cuts longer than a chunk; such a cut is an
// allocation of its own, leaving the chunk in hand as it was;
// an empty cut allocates nothing; and a chunk's worth of cuts costs one
// allocation.
func TestStringChunksContract(t *testing.T) {
	var c StringChunks
	const n = 5000 // names of 8 to 17 bytes: some twenty chunks
	got, want := make([]string, n), make([]string, n)
	var buf []byte
	for i := range got {
		buf = fmt.Appendf(buf[:0], "%x.a.com.", i*i*7919)
		want[i] = string(buf)
		got[i] = c.Cut(buf)
		if i%1000 != 999 {
			continue
		}
		long := bytes.Repeat([]byte{byte('a' + i%26)}, 2*ChunkSize+i%7)
		used, room := c.b.Len(), c.b.Cap()
		if huge := c.Cut(long); huge != string(long) {
			t.Fatalf("cut %d: a cut longer than a chunk reads wrong", i)
		}
		if c.b.Len() != used || c.b.Cap() != room {
			t.Errorf("cut %d: a cut longer than a chunk took the chunk in hand", i)
		}
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cut %d reads %q after the later cuts, want %q", i, got[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if c.Cut(nil) != "" || c.Cut([]byte{}) != "" {
			t.Fatal("an empty cut is not the empty string")
		}
	}); n != 0 {
		t.Errorf("an empty cut allocates %v times, want 0", n)
	}
	// 204 cuts of 20 bytes fill all but 16 bytes of a chunk, so each run
	// of them starts a chunk and fills it.
	name := []byte("twenty-byte-s.a.com.")
	if n := testing.AllocsPerRun(50, func() {
		for range ChunkSize / len(name) {
			c.Cut(name)
		}
	}); n != 1 {
		t.Errorf("a chunk's worth of cuts allocates %v times, want 1", n)
	}
}
