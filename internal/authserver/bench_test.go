package authserver

import (
	"context"
	"net/netip"
	"testing"

	"repro/internal/dnswire"
)

func benchZone(b *testing.B) *Zone {
	b.Helper()
	z := NewZone("a.com.")
	if err := z.SetSOA("ns1.a.com.", "hostmaster.a.com.", 2021042901); err != nil {
		b.Fatalf("SetSOA: %v", err)
	}
	for _, rr := range []dnswire.ResourceRecord{
		{Name: "a.com.", TTL: 3600, Data: dnswire.NSRecord{NS: "ns1.a.com."}},
		{Name: "ns1.a.com.", TTL: 3600, Data: dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.53")}},
		{Name: "*.a.com.", TTL: 60, Data: dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.80")}},
	} {
		if err := z.Add(rr); err != nil {
			b.Fatalf("Add: %v", err)
		}
	}
	return z
}

// BenchmarkServePacket measures the full UDP answer path — parse,
// lookup, pack, query log — on the engine scratch, without sockets.
func BenchmarkServePacket(b *testing.B) {
	s := NewServer(benchZone(b))
	query, err := dnswire.NewQuery(4242, "bench.a.com.", dnswire.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}
	src := netip.MustParseAddrPort("127.0.0.1:4242")
	out := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := s.servePacket(context.Background(), out[:0], query, src)
		if err != nil || wire == nil {
			b.Fatal("no response")
		}
	}
}
