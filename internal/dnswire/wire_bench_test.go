package dnswire

import (
	"bytes"
	"net/netip"
	"testing"
)

// benchResponse builds a realistic compressed response: one question,
// three A answers sharing the question's name, an NS authority, and an
// EDNS0 OPT additional — the shape the campaign's hot loops decode.
func benchResponse() *Message {
	q := NewQuery(0x1234, "test.a.com.", TypeA)
	r := q.Reply()
	for i := 0; i < 3; i++ {
		r.Answers = append(r.Answers, ResourceRecord{
			Name: "test.a.com.", Type: TypeA, Class: ClassIN, TTL: 300,
			Data: ARecord{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i)})},
		})
	}
	r.Authorities = append(r.Authorities, ResourceRecord{
		Name: "a.com.", Type: TypeNS, Class: ClassIN, TTL: 3600,
		Data: NSRecord{NS: "ns1.a.com."},
	})
	r.Additionals = append(r.Additionals, ResourceRecord{
		Type: TypeOPT, Data: OPTRecord{UDPSize: 1232},
	})
	return r
}

// BenchmarkWirePackUnpack measures the zero-allocation fast path:
// AppendPack into a reused buffer and UnpackInto a reused Message.
// The companion test below turns its 0 allocs/op into a hard gate.
func BenchmarkWirePackUnpack(b *testing.B) {
	src := benchResponse()
	buf := make([]byte, 0, 512)
	var dst Message
	// Warm dst so the loop measures steady state, as in a transport's
	// per-query hot loop.
	wire, err := src.AppendPack(buf)
	if err != nil {
		b.Fatal(err)
	}
	if err := UnpackInto(wire, &dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err = src.AppendPack(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := UnpackInto(wire, &dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWirePackUnpackLegacy is the same round trip through the
// allocating wrappers, kept for before/after comparison with
// BenchmarkWirePackUnpack.
func BenchmarkWirePackUnpackLegacy(b *testing.B) {
	src := benchResponse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := src.Pack()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWirePackUnpackAllocationFree is the 0-alloc gate for the codec
// fast path, mirroring the cache's TestWarmHitAllocationFree: any
// allocation on the steady-state AppendPack/UnpackInto round trip is
// a regression and fails the build.
func TestWirePackUnpackAllocationFree(t *testing.T) {
	src := benchResponse()
	buf := make([]byte, 0, 512)
	var dst Message
	wire, err := src.AppendPack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := UnpackInto(wire, &dst); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		wire, err := src.AppendPack(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := UnpackInto(wire, &dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendPack+UnpackInto allocates %.1f per op, want 0", n)
	}
}

// TestQueryAppendPackAllocationFree pins the campaign's dominant shape
// — a single-question query — which skips the compression table
// entirely (the lazy-table satellite of the legacy Pack API).
func TestQueryAppendPackAllocationFree(t *testing.T) {
	q := NewQuery(7, "test.a.com.", TypeA)
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(1000, func() {
		var err error
		if _, err = q.AppendPack(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("single-question AppendPack allocates %.1f per op, want 0", n)
	}
}

// TestAppendPackOffsetBase verifies compression pointers stay
// message-relative when dst already carries a prefix (e.g. a 2-byte
// TCP length header).
func TestAppendPackOffsetBase(t *testing.T) {
	src := benchResponse()
	plain, err := src.Pack()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	shifted, err := src.AppendPack(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shifted[:len(prefix)], prefix) {
		t.Fatalf("prefix clobbered: %x", shifted[:len(prefix)])
	}
	if !bytes.Equal(shifted[len(prefix):], plain) {
		t.Errorf("prefixed AppendPack differs from Pack:\n got %x\nwant %x",
			shifted[len(prefix):], plain)
	}
	// The shifted copy must decode identically too.
	m, err := Unpack(shifted[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != len(src.Answers) || m.Answers[0].Name != "test.a.com." {
		t.Errorf("decoded answers = %v", m.Answers)
	}
}

// TestUnpackIntoReuse checks that repeated decodes into the same
// Message reuse names and RData values rather than reallocating them.
func TestUnpackIntoReuse(t *testing.T) {
	src := benchResponse()
	wire, err := src.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := UnpackInto(wire, &m); err != nil {
		t.Fatal(err)
	}
	name0 := m.Answers[0].Name
	data0 := m.Answers[0].Data
	if err := UnpackInto(wire, &m); err != nil {
		t.Fatal(err)
	}
	if m.Answers[0].Name != name0 {
		t.Errorf("name not reused: %q vs %q", m.Answers[0].Name, name0)
	}
	if m.Answers[0].Data != data0 {
		t.Errorf("RData not reused: %v vs %v", m.Answers[0].Data, data0)
	}
	// Decoding a different message into the same storage must fully
	// replace the old contents.
	q := NewQuery(9, "other.example.", TypeAAAA)
	qw, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := UnpackInto(qw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 0 || len(m.Questions) != 1 || m.Questions[0].Name != "other.example." {
		t.Errorf("stale state after reuse: %+v", m)
	}
}

// TestPooledScratchRoundTrip exercises the Buffer/Message pools'
// ownership cycle.
func TestPooledScratchRoundTrip(t *testing.T) {
	buf := GetBuffer()
	msg := GetMessage()
	src := benchResponse()
	var err error
	buf.B, err = src.AppendPack(buf.B[:0])
	if err != nil {
		t.Fatal(err)
	}
	if err := UnpackInto(buf.B, msg); err != nil {
		t.Fatal(err)
	}
	if len(msg.Answers) != 3 {
		t.Fatalf("answers = %d, want 3", len(msg.Answers))
	}
	PutMessage(msg)
	PutBuffer(buf)

	big := GetBuffer()
	big.B = make([]byte, maxRetainedBuffer+1)
	PutBuffer(big) // must drop, not pool, oversized buffers
	if got := GetBuffer(); cap(got.B) > maxRetainedBuffer {
		t.Errorf("oversized buffer came back from pool: cap=%d", cap(got.B))
	}
}

// TestAppendPackErrorRestoresDst pins the error contract: on failure
// the returned slice is dst truncated to its original length, so
// pooled buffers survive failed packs.
func TestAppendPackErrorRestoresDst(t *testing.T) {
	bad := NewQuery(1, Name(bytes.Repeat([]byte("abcdefghij."), 30)), TypeA)
	dst := []byte{1, 2, 3}
	out, err := bad.AppendPack(dst)
	if err == nil {
		t.Fatal("want error for oversized name")
	}
	if !bytes.Equal(out, dst) {
		t.Errorf("dst not restored on error: %x", out)
	}
}
