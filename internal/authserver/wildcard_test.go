package authserver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/dnswire"
)

// typeSRV stands in for the SRV records of RFC 4592's example zone; the
// codec carries them as opaque RDATA.
const typeSRV dnswire.Type = 33

// rfc4592Zone is the example zone of RFC 4592 §2.2.1.
func rfc4592Zone(t *testing.T) *Zone {
	t.Helper()
	z := NewZone("example.")
	if err := z.SetSOA("ns.example.com.", "hostmaster.example.", 1); err != nil {
		t.Fatal(err)
	}
	srv := dnswire.UnknownRecord{T: typeSRV, Raw: []byte{0, 0, 0, 0, 0, 22, 0}}
	for _, rr := range []dnswire.ResourceRecord{
		{Name: "example.", TTL: 3600, Data: dnswire.NSRecord{NS: "ns.example.com."}},
		{Name: "example.", TTL: 3600, Data: dnswire.NSRecord{NS: "ns.example.net."}},
		{Name: "*.example.", TTL: 3600, Data: dnswire.TXTRecord{Strings: []string{"this is a wildcard"}}},
		{Name: "*.example.", TTL: 3600, Data: dnswire.MXRecord{Preference: 10, MX: "host1.example."}},
		{Name: "sub.*.example.", TTL: 3600, Data: dnswire.TXTRecord{Strings: []string{"this is not a wildcard"}}},
		{Name: "host1.example.", TTL: 3600, Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: "_ssh._tcp.host1.example.", TTL: 3600, Data: srv},
		{Name: "_ssh._tcp.host2.example.", TTL: 3600, Data: srv},
		{Name: "subdel.example.", TTL: 3600, Data: dnswire.NSRecord{NS: "ns.example.com."}},
		{Name: "subdel.example.", TTL: 3600, Data: dnswire.NSRecord{NS: "ns.example.net."}},
	} {
		if err := z.Add(rr); err != nil {
			t.Fatalf("Add(%v): %v", rr, err)
		}
	}
	return z
}

// TestWildcardClosestEncloser: RFC 4592 §2.2.1's examples, then the
// zone the closest-encloser bug was found on. A wildcard synthesizes
// only for a name that does not exist, and only from directly below the
// name's closest encloser — its nearest existing ancestor — which may
// be an empty non-terminal or a wildcard itself.
func TestWildcardClosestEncloser(t *testing.T) {
	small := NewZone("a.com.")
	for _, owner := range []dnswire.Name{"*.a.com.", "b.a.com.", "x.*.e.a.com."} {
		if err := small.Add(dnswire.ResourceRecord{Name: owner, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.9")}}); err != nil {
			t.Fatal(err)
		}
	}
	rfc := rfc4592Zone(t)
	for _, tc := range []struct {
		zone *Zone
		name dnswire.Name
		typ  dnswire.Type
		want LookupResult
		// answers is how many records a Success carries; synthesized
		// ones carry the query name as their owner.
		answers int
	}{
		// RFC 4592 §2.2.1: answered by synthesis from *.example.
		{rfc, "host3.example.", dnswire.TypeMX, Success, 1},
		{rfc, "host3.example.", dnswire.TypeA, NoData, 0},
		{rfc, "foo.bar.example.", dnswire.TypeTXT, Success, 1},
		// ... and not: the name exists, its closest encloser has no
		// wildcard, or it sits under a cut.
		{rfc, "host1.example.", dnswire.TypeMX, NoData, 0},
		{rfc, "sub.*.example.", dnswire.TypeMX, NoData, 0},
		{rfc, "_telnet._tcp.host1.example.", typeSRV, NXDomain, 0},
		{rfc, "host.subdel.example.", dnswire.TypeA, Delegation, 2},
		{rfc, "ghost.*.example.", dnswire.TypeMX, NXDomain, 0},
		// The wildcard's own name answers from its records as they stand.
		{rfc, "*.example.", dnswire.TypeMX, Success, 1},
		{rfc, "*.example.", dnswire.TypeA, NoData, 0},
		{rfc, "sub.*.example.", dnswire.TypeTXT, Success, 1},
		{rfc, "_ssh._tcp.host2.example.", typeSRV, Success, 1},
		{rfc, "_tcp.host2.example.", typeSRV, NoData, 0},

		// The bug: the walk went past an existing ancestor, and a
		// wildcard owner was not a name.
		{small, "x.b.a.com.", dnswire.TypeA, NXDomain, 0},
		{small, "ghost.*.a.com.", dnswire.TypeA, NXDomain, 0},
		{small, "y.a.com.", dnswire.TypeA, Success, 1},
		{small, "deep.y.a.com.", dnswire.TypeA, Success, 1},
		{small, "b.a.com.", dnswire.TypeA, Success, 1},
		{small, "*.a.com.", dnswire.TypeA, Success, 1},
		// *.e.a.com. exists only as the empty non-terminal above
		// x.*.e.a.com.: it is the source of synthesis and has nothing.
		{small, "q.e.a.com.", dnswire.TypeA, NoData, 0},
		{small, "x.*.e.a.com.", dnswire.TypeA, Success, 1},
		{small, "y.x.*.e.a.com.", dnswire.TypeA, NXDomain, 0},
	} {
		rrs, got := tc.zone.Lookup(tc.name, tc.typ)
		if got != tc.want || len(rrs) != tc.answers {
			t.Errorf("%s %v: %v with %d records, want %v with %d", tc.name, tc.typ, got, len(rrs), tc.want, tc.answers)
			continue
		}
		if got == Success && rrs[0].Name != tc.name {
			t.Errorf("%s %v: owner %s, want the query name", tc.name, tc.typ, rrs[0].Name)
		}
	}
}

// measurementZone is the paper's zone as the benchmark serves it: apex
// SOA and NS plus the *.a.com. wildcard every <UUID>.a.com. lands on.
func measurementZone(t *testing.T) *Zone {
	t.Helper()
	z := NewZone("a.com.")
	if err := z.SetSOA("ns1.a.com.", "hostmaster.a.com.", 2021042901); err != nil {
		t.Fatal(err)
	}
	for _, rr := range []dnswire.ResourceRecord{
		{Name: "a.com.", TTL: 3600, Data: dnswire.NSRecord{NS: "ns1.a.com."}},
		{Name: "*.a.com.", TTL: 3600, Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.9")}},
	} {
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	return z
}

// TestMeasurementZoneAnswersPinned: the measurement zone answers byte
// for byte as it did before wildcard synthesis learned the closest
// encloser and learned to write into the reply: SHA-256 over the packed
// replies to its queries, recorded before that change.
func TestMeasurementZoneAnswersPinned(t *testing.T) {
	const pinned = "d828d0a973a9be3931a61816482be25956a0067f577890ca195b1c6780433710"
	s := NewServer(measurementZone(t))
	s.QueryLogLimit = -1
	h := sha256.New()
	for i, q := range []struct {
		name dnswire.Name
		typ  dnswire.Type
	}{
		{"123e4567-e89b-12d3-a456-426614174000.a.com.", dnswire.TypeA},
		{"123e4567-e89b-12d3-a456-426614174000.a.com.", dnswire.TypeAAAA},
		{"123e4567-e89b-12d3-a456-426614174000.a.com.", dnswire.TypeANY},
		{"AbC.a.CoM.", dnswire.TypeA},
		{"x.y.a.com.", dnswire.TypeA},
		{"*.a.com.", dnswire.TypeA},
		{"a.com.", dnswire.TypeSOA},
		{"a.com.", dnswire.TypeNS},
		{"a.com.", dnswire.TypeA},
		{"ns1.a.com.", dnswire.TypeA},
		{"other.org.", dnswire.TypeA},
	} {
		raw, err := dnswire.NewQuery(uint16(i+1), q.name, q.typ).Pack()
		if err != nil {
			t.Fatal(err)
		}
		resp := s.handlePacket(raw, netip.MustParseAddrPort("192.0.2.53:53"), "udp")
		wire, err := resp.AppendPackLimit(nil, dnswire.MaxUDPPayload)
		dnswire.PutMessage(resp)
		if err != nil {
			t.Fatalf("%s %v: %v", q.name, q.typ, err)
		}
		fmt.Fprintf(h, "%d:%x\n", len(wire), wire)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Errorf("measurement zone replies hash %s, pinned %s", got, pinned)
	}
}

// TestWildcardAnswerAllocBudget: a wildcard answer is synthesized into
// the pooled reply's own answer section, so a query the authoritative
// server answers from the wildcard allocates only the question name the
// query log keeps, and a lookup into reply storage allocates nothing.
// Nothing the reply holds is the zone's: writing over it changes no
// later answer.
func TestWildcardAnswerAllocBudget(t *testing.T) {
	z := measurementZone(t)
	s := NewServer(z)
	s.QueryLogLimit = 16
	names := make([]dnswire.Name, 64)
	queries := make([][]byte, len(names))
	for i := range names {
		names[i] = dnswire.Name(fmt.Sprintf("%08x-e89b-12d3-a456-426614174000.a.com.", i))
		raw, err := dnswire.NewQuery(uint16(i), names[i], dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = raw
	}
	src := netip.MustParseAddrPort("192.0.2.53:53")
	i := 0
	handle := func() {
		resp := s.handlePacket(queries[i%len(queries)], src, "udp")
		if len(resp.Answers) != 1 || resp.Answers[0].Name != names[i%len(names)] {
			t.Fatalf("answer to %s = %v", names[i%len(names)], resp.Answers)
		}
		dnswire.PutMessage(resp)
		i++
	}
	dst := make([]dnswire.ResourceRecord, 0, 4)
	lookup := func() {
		rrs, res := z.lookupInto(dst[:0], names[i%len(names)], dnswire.TypeA)
		if res != Success || len(rrs) != 1 || &rrs[0] != &dst[:1][0] {
			t.Fatalf("lookupInto = %v, %v: not in dst's storage", rrs, res)
		}
		i++
	}
	if !raceEnabled {
		for range queries { // fill the query log's ring and the message pool
			handle()
		}
		if n := testing.AllocsPerRun(500, handle); n > 1 {
			t.Errorf("wildcard query through handlePacket: %.2f allocs, want 1 (the logged name)", n)
		}
		if n := testing.AllocsPerRun(500, lookup); n != 0 {
			t.Errorf("lookupInto reply storage: %.2f allocs, want 0", n)
		}
	}

	// The reply never aliases the zone: overwrite every answer a reply
	// holds, then ask again.
	for _, q := range []struct {
		name dnswire.Name
		typ  dnswire.Type
	}{
		{"fresh.a.com.", dnswire.TypeA},
		{"*.a.com.", dnswire.TypeA},
		{"a.com.", dnswire.TypeNS},
		{"a.com.", dnswire.TypeSOA},
	} {
		rrs, _ := z.Lookup(q.name, q.typ)
		answers, before := len(rrs), fmt.Sprint(rrs)
		for round := 0; round < 2; round++ {
			resp := s.Answer(dnswire.NewQuery(7, q.name, q.typ))
			if len(resp.Answers) != answers {
				t.Fatalf("%s %v: %d answers, want %d", q.name, q.typ, len(resp.Answers), answers)
			}
			for k := range resp.Answers {
				resp.Answers[k] = dnswire.ResourceRecord{Name: "overwritten.", TTL: 1,
					Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.254")}}
			}
		}
		if after, _ := z.Lookup(q.name, q.typ); fmt.Sprint(after) != before {
			t.Errorf("%s %v: writing over a reply changed the zone: %s, then %v", q.name, q.typ, before, after)
		}
	}
}
