package dnswire

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
)

// FuzzUnpack drives the wire decoder with arbitrary bytes: it must
// never panic, and anything it accepts must survive a re-pack /
// re-unpack cycle with the same header and section sizes.
func FuzzUnpack(f *testing.F) {
	seed := func(m *Message) {
		if wire, err := m.Pack(); err == nil {
			f.Add(wire)
		}
	}
	seed(NewQuery(1, "example.com.", TypeA))
	resp := NewQuery(2, "svc.a.com.", TypeANY).Reply()
	resp.Answers = append(resp.Answers, ResourceRecord{
		Name: "svc.a.com.", Type: TypeTXT, Class: ClassIN, TTL: 60,
		Data: TXTRecord{Strings: []string{"seed"}},
	})
	seed(resp)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xc0}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		wire, err := m.Pack()
		if err != nil {
			// Some decodable messages are not re-encodable (e.g.
			// names that exceeded limits via compression); that is
			// acceptable as long as decoding did not panic.
			return
		}
		m2, err := Unpack(wire)
		if err != nil {
			t.Fatalf("re-unpack failed: %v", err)
		}
		if m2.Header.ID != m.Header.ID || m2.Header.Opcode != m.Header.Opcode {
			t.Fatalf("header drifted: %+v vs %+v", m.Header, m2.Header)
		}
		if len(m2.Questions) != len(m.Questions) ||
			len(m2.Answers) != len(m.Answers) ||
			len(m2.Authorities) != len(m.Authorities) ||
			len(m2.Additionals) != len(m.Additionals) {
			t.Fatalf("section sizes drifted")
		}
	})
}

// FuzzHintedDecode pins UnpackReplyInto's known-name argument — how a
// server front hands the decode the cache's spelling of the question
// name — to the plain decode: for any bytes and any known name, decoding
// with the hint accepts exactly what UnpackInto accepts and decodes to a
// reflect.DeepEqual message. PeekQuestion, the lookup the hint comes
// from, agrees with the first question decoded. The seed corpus
// (testdata/fuzz/FuzzHintedDecode) holds a compressed second question,
// the root name, a 255-byte name, a mixed-case name against its
// lowercase hint and a truncated header.
func FuzzHintedDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, known string) {
		var plain, hinted Message
		hint := Message{Questions: []Question{{Name: Name(known)}}}
		plainErr := UnpackInto(data, &plain)
		hintedErr := UnpackReplyInto(data, &hinted, &hint)
		if (plainErr != nil) != (hintedErr != nil) {
			t.Fatalf("accept drift: UnpackInto err=%v, hinted err=%v", plainErr, hintedErr)
		}
		if plainErr != nil {
			return
		}
		if !reflect.DeepEqual(&plain, &hinted) {
			t.Fatalf("decode drift:\nUnpackInto: %+v\nhinted:     %+v", &plain, &hinted)
		}
		var buf [NameBufSize]byte
		name, typ, ok := PeekQuestion(data, &buf)
		if len(plain.Questions) > 0 && (!ok || Name(name) != plain.Questions[0].Name || typ != plain.Questions[0].Type) {
			t.Fatalf("PeekQuestion = %q, %v, %v; decoded %v", name, typ, ok, plain.Questions[0])
		}
	})
}

// sectionsEqual compares two RR sections structurally, tolerating the
// nil-versus-empty slice difference a reused Message accumulates.
func sectionsEqual(a, b []ResourceRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// messagesEqual is the structural-equality oracle for the
// differential fuzzers.
func messagesEqual(a, b *Message) bool {
	if a.Header != b.Header || len(a.Questions) != len(b.Questions) {
		return false
	}
	for i := range a.Questions {
		if a.Questions[i] != b.Questions[i] {
			return false
		}
	}
	return sectionsEqual(a.Answers, b.Answers) &&
		sectionsEqual(a.Authorities, b.Authorities) &&
		sectionsEqual(a.Additionals, b.Additionals)
}

// FuzzDifferentialPackUnpack pins the fast path to the legacy API:
// for any input, UnpackInto must accept exactly what Unpack accepts
// and decode to a structurally identical message — including when
// decoding into dirty storage that offers bogus reuse candidates —
// and AppendPack must emit byte-for-byte what Pack emits, at offset
// zero and behind a transport prefix.
func FuzzDifferentialPackUnpack(f *testing.F) {
	seed := func(m *Message) {
		if wire, err := m.Pack(); err == nil {
			f.Add(wire)
		}
	}
	seed(NewQuery(3, "www.example.com.", TypeAAAA))
	rich := NewQuery(4, "mail.b.org.", TypeMX).Reply()
	rich.Answers = append(rich.Answers, ResourceRecord{
		Name: "mail.b.org.", Type: TypeMX, Class: ClassIN, TTL: 120,
		Data: MXRecord{Preference: 10, MX: "mx1.mail.b.org."},
	})
	rich.Authorities = append(rich.Authorities, ResourceRecord{
		Name: "b.org.", Type: TypeSOA, Class: ClassIN, TTL: 900,
		Data: SOARecord{MName: "ns.b.org.", RName: "hostmaster.b.org.",
			Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5},
	})
	rich.Additionals = append(rich.Additionals, ResourceRecord{
		Name: "mx1.mail.b.org.", Type: TypeA, Class: ClassIN, TTL: 60,
		Data: ARecord{Addr: netip.AddrFrom4([4]byte{198, 51, 100, 7})},
	})
	rich.Additionals = append(rich.Additionals, ResourceRecord{
		Type: TypeOPT, Data: OPTRecord{UDPSize: 4096},
	})
	seed(rich)
	unknown := NewQuery(5, "x.test.", Type(0xfd)).Reply()
	unknown.Answers = append(unknown.Answers, ResourceRecord{
		Name: "x.test.", Type: Type(0xfd), Class: ClassIN, TTL: 1,
		Data: UnknownRecord{T: Type(0xfd), Raw: []byte{1, 2, 3}},
	})
	unknown.Answers = append(unknown.Answers, ResourceRecord{
		Name: "txt.x.test.", Type: TypeTXT, Class: ClassIN, TTL: 1,
		Data: TXTRecord{Strings: []string{"a", ""}},
	})
	seed(unknown)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xc0, 0x0c}, 16))

	// dirty persists across fuzz iterations so UnpackInto constantly
	// decodes over stale names, RData, and section capacity.
	var dirty Message
	f.Fuzz(func(t *testing.T, data []byte) {
		legacy, legacyErr := Unpack(data)
		intoErr := UnpackInto(data, &dirty)
		if (legacyErr != nil) != (intoErr != nil) {
			t.Fatalf("accept drift: Unpack err=%v, UnpackInto err=%v", legacyErr, intoErr)
		}
		if legacyErr != nil {
			return
		}
		if !messagesEqual(legacy, &dirty) {
			t.Fatalf("decode drift:\nUnpack:     %+v\nUnpackInto: %+v", legacy, &dirty)
		}

		wire, packErr := legacy.Pack()
		appended, appendErr := legacy.AppendPack(nil)
		if (packErr != nil) != (appendErr != nil) {
			t.Fatalf("pack accept drift: Pack err=%v, AppendPack err=%v", packErr, appendErr)
		}
		if packErr != nil {
			return
		}
		if !bytes.Equal(wire, appended) {
			t.Fatalf("pack drift:\nPack:       %x\nAppendPack: %x", wire, appended)
		}
		prefixed, err := legacy.AppendPack(make([]byte, 2, 2+len(wire)))
		if err != nil {
			t.Fatalf("prefixed AppendPack failed: %v", err)
		}
		if !bytes.Equal(prefixed[2:], wire) {
			t.Fatalf("prefixed pack drift:\nPack:       %x\nAppendPack: %x", wire, prefixed[2:])
		}
	})
}
