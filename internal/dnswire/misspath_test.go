package dnswire

import (
	"bytes"
	"net/netip"
	"testing"
	"unsafe"
)

func sameString(a, b Name) bool {
	return len(a) == len(b) && unsafe.StringData(string(a)) == unsafe.StringData(string(b))
}

// singleAnswer is the message every serving workload moves: one
// question, one A record owned by the question's name.
func singleAnswer(t testing.TB, q *Message) []byte {
	r := q.Reply()
	r.Answers = append(r.Answers, ResourceRecord{
		Name: q.Questions[0].Name, Type: TypeA, Class: ClassIN, TTL: 300,
		Data: ARecord{Addr: netip.MustParseAddr("203.0.113.9")},
	})
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestUnpackSharesRepeatedNames: an owner name equal to the name
// decoded just before it is that string, not a second copy, and a
// client decoding the answer to its own query ends up holding the
// query's string. Equal means byte for byte: a name that differs in
// case is a different string and gets its own.
func TestUnpackSharesRepeatedNames(t *testing.T) {
	q := NewQuery(7, "echo.a.com.", TypeA)
	wire := singleAnswer(t, q)

	var m Message
	if err := UnpackInto(wire, &m); err != nil {
		t.Fatal(err)
	}
	if !sameString(m.Answers[0].Name, m.Questions[0].Name) {
		t.Error("the answer's owner name is a second copy of the question's")
	}
	if sameString(m.Questions[0].Name, q.Questions[0].Name) {
		t.Error("UnpackInto knew the query's string without being told the query")
	}

	var r Message
	if err := UnpackReplyInto(wire, &r, q); err != nil {
		t.Fatal(err)
	}
	if !sameString(r.Questions[0].Name, q.Questions[0].Name) || !sameString(r.Answers[0].Name, q.Questions[0].Name) {
		t.Error("UnpackReplyInto did not reuse the query's name string")
	}

	other := NewQuery(7, "ECHO.a.com.", TypeA) // 0x20-style case difference
	var c Message
	if err := UnpackReplyInto(wire, &c, other); err != nil {
		t.Fatal(err)
	}
	if c.Questions[0].Name != "echo.a.com." {
		t.Errorf("decoded question %q took the candidate's spelling", c.Questions[0].Name)
	}

	// Consecutive records of one RRset share too; a different owner
	// in between does not.
	multi := benchResponse()
	multi.Answers[1].Name = "other.a.com."
	mw, err := multi.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var mm Message
	if err := UnpackInto(mw, &mm); err != nil {
		t.Fatal(err)
	}
	if !sameString(mm.Answers[0].Name, mm.Questions[0].Name) {
		t.Error("first answer does not share the question's name")
	}
	if mm.Answers[1].Name != "other.a.com." || mm.Answers[2].Name != "test.a.com." {
		t.Errorf("owners decoded as %q, %q", mm.Answers[1].Name, mm.Answers[2].Name)
	}
}

// TestUnpackReplyAllocBudget: decoding a single-answer response into a
// message the pool had to make — the upstream answer a resolver caches
// is one on every miss — costs the message block and the boxed A
// record, 2 allocations. It was 6: message, two section slices, two
// name strings, the record.
func TestUnpackReplyAllocBudget(t *testing.T) {
	q := NewQuery(7, "echo.a.com.", TypeA)
	wire := singleAnswer(t, q)
	var sink *Message
	n := testing.AllocsPerRun(200, func() {
		m := newAnswerBlock()
		if err := UnpackReplyInto(wire, m, q); err != nil {
			t.Fatal(err)
		}
		sink = m
	})
	if n > 2 {
		t.Errorf("response with echoed owner name into a fresh message: %.1f allocs, budget 2", n)
	}
	if sink.Answers[0].Name != "echo.a.com." || cap(sink.Answers) != 1 {
		t.Errorf("decoded %v (cap %d)", sink.Answers, cap(sink.Answers))
	}
	// A recycled message that last held the same shape costs nothing.
	m := GetMessage()
	defer PutMessage(m)
	UnpackReplyInto(wire, m, q)
	if n := testing.AllocsPerRun(200, func() { UnpackReplyInto(wire, m, q) }); n != 0 {
		t.Errorf("same response into a recycled message: %.1f allocs, want 0", n)
	}
}

// TestQueryAndReplyAreOneAllocation: message and single question are
// one object.
func TestQueryAndReplyAreOneAllocation(t *testing.T) {
	var sink *Message
	if n := testing.AllocsPerRun(200, func() { sink = NewQuery(1, "one.a.com.", TypeA) }); n != 1 {
		t.Errorf("NewQuery: %.1f allocs, want 1", n)
	}
	q := sink
	if n := testing.AllocsPerRun(200, func() { sink = q.Reply() }); n != 1 {
		t.Errorf("Reply: %.1f allocs, want 1", n)
	}
	if len(sink.Questions) != 1 || sink.Questions[0] != q.Questions[0] || !sink.Header.Response {
		t.Errorf("Reply = %+v", sink)
	}
	// The skeleton grows like any other message.
	sink.Questions = append(sink.Questions, Question{Name: "two.a.com.", Type: TypeA, Class: ClassIN})
	if q.Questions[0].Name != "one.a.com." || len(q.Questions) != 1 {
		t.Error("appending to the reply reached into the query")
	}
}

// TestReplyIntoResetsAPooledMessage: whatever the recycled message
// held, the skeleton carries the query's question and nothing else.
func TestReplyIntoResetsAPooledMessage(t *testing.T) {
	dirty := benchResponse()
	dirty.Header.Authoritative, dirty.Header.RCode = true, RCodeRefused
	q := NewQuery(9, "clean.a.com.", TypeAAAA)
	q.Header.RecursionDesired = false
	r := q.ReplyInto(dirty)
	if r != dirty {
		t.Fatal("ReplyInto returned another message")
	}
	want := Header{ID: 9, Response: true}
	if r.Header != want {
		t.Errorf("header = %+v, want %+v", r.Header, want)
	}
	if len(r.Questions) != 1 || r.Questions[0] != q.Questions[0] ||
		len(r.Answers)+len(r.Authorities)+len(r.Additionals) != 0 {
		t.Errorf("skeleton = %v", r)
	}
	if cap(r.Answers) < 3 {
		t.Error("ReplyInto dropped the recycled section storage")
	}
}

// TestAppendPackLimit: a message that fits is packed once and comes out
// exactly as AppendPack makes it; one that does not is truncated to the
// limit with TC set, after whatever dst already held.
func TestAppendPackLimit(t *testing.T) {
	small := benchResponse()
	want, err := small.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte{0xAA, 0xBB}
	got, err := small.AppendPackLimit(append([]byte(nil), prefix...), MaxUDPPayload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
		t.Error("a fitting message packed differently from AppendPack")
	}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() { small.AppendPackLimit(buf, MaxUDPPayload) }); n != 0 {
		t.Errorf("a fitting message: %.1f allocs, want 0 (Truncate used to pack a second copy to measure)", n)
	}

	big := NewQuery(3, "big.a.com", TypeTXT).Reply()
	for i := 0; i < 64; i++ {
		big.Answers = append(big.Answers, ResourceRecord{
			Name: "big.a.com.", Type: TypeTXT, Class: ClassIN, TTL: 5,
			Data: TXTRecord{Strings: []string{string(bytes.Repeat([]byte{'x'}, 100))}},
		})
	}
	got, err = big.AppendPackLimit(append([]byte(nil), prefix...), MaxUDPPayload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2], prefix) || len(got)-2 > MaxUDPPayload {
		t.Fatalf("overflowing message came out as %d bytes after the prefix", len(got)-2)
	}
	m, err := Unpack(got[2:])
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.Truncated || len(m.Answers) == 0 || len(m.Answers) >= 64 {
		t.Errorf("TC=%v with %d answers", m.Header.Truncated, len(m.Answers))
	}
	if big.Header.Truncated || len(big.Answers) != 64 {
		t.Error("AppendPackLimit mutated the message")
	}
}

func TestNumLabels(t *testing.T) {
	for _, n := range []Name{".", "", "com.", "a.com.", "a.com", "x.y.z.a.com."} {
		if got, want := n.NumLabels(), len(n.Labels()); got != want {
			t.Errorf("%q: NumLabels = %d, Labels has %d", n, got, want)
		}
	}
}
