package recursive

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/authserver"
	"repro/internal/dnswire"
)

// hierarchy runs a three-level DNS tree on loopback: a root zone
// delegating "com.", a com zone delegating "a.com." (with glue) and
// "b.com." (glueless), and the two leaf zones. Glue uses synthetic
// 192.0.2.x addresses that AddrToServer maps to the real listeners.
type hierarchy struct {
	root, com, acom, bcom *authserver.Server
	addrMap               map[netip.Addr]string
}

// startHierarchy is newHierarchy for a test: the servers shut down
// when t ends.
func startHierarchy(t *testing.T) *hierarchy {
	t.Helper()
	h, err := newHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.close)
	return h
}

// newHierarchy starts the tree; close shuts it down.
func newHierarchy() (*hierarchy, error) {
	h := &hierarchy{addrMap: map[netip.Addr]string{}}
	if err := h.start(); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *hierarchy) close() {
	for _, s := range []*authserver.Server{h.root, h.com, h.acom, h.bcom} {
		if s != nil {
			s.Shutdown(context.Background())
		}
	}
}

func (h *hierarchy) start() error {
	rr := func(name dnswire.Name, ttl uint32, data dnswire.RData) dnswire.ResourceRecord {
		return dnswire.ResourceRecord{Name: name, TTL: ttl, Data: data}
	}
	serve := func(origin, primary, admin dnswire.Name, rrs ...dnswire.ResourceRecord) (*authserver.Server, error) {
		z := authserver.NewZone(origin)
		if err := z.SetSOA(primary, admin, 1); err != nil {
			return nil, err
		}
		for _, r := range rrs {
			if err := z.Add(r); err != nil {
				return nil, fmt.Errorf("Add(%v): %w", r, err)
			}
		}
		s := authserver.NewServer(z)
		if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
			return nil, err
		}
		return s, nil
	}
	var err error

	// Synthetic addresses the glue records carry.
	rootIP := netip.MustParseAddr("192.0.2.1")
	comIP := netip.MustParseAddr("192.0.2.2")
	acomIP := netip.MustParseAddr("192.0.2.3")
	bcomIP := netip.MustParseAddr("192.0.2.4")

	// Leaf zone a.com (glueful delegation).
	if h.acom, err = serve("a.com.", "ns1.a.com.", "h.a.com.",
		rr("a.com.", 300, dnswire.NSRecord{NS: "ns1.a.com."}),
		rr("ns1.a.com.", 300, dnswire.ARecord{Addr: acomIP}),
		rr("*.a.com.", 60, dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.80")}),
		rr("www.a.com.", 60, dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.81")}),
		rr("alias.a.com.", 60, dnswire.CNAMERecord{Target: "target.b.com."}),
		rr("nsb.a.com.", 300, dnswire.ARecord{Addr: bcomIP})); err != nil {
		return err
	}

	// Leaf zone b.com, reached via a glueless delegation: its name
	// server host lives in a.com (out-of-bailiwick), so the resolver
	// must side-resolve nsb.a.com before it can descend into b.com.
	if h.bcom, err = serve("b.com.", "nsb.a.com.", "h.b.com.",
		rr("b.com.", 300, dnswire.NSRecord{NS: "nsb.a.com."}),
		rr("target.b.com.", 60, dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.90")})); err != nil {
		return err
	}

	// com zone: delegates a.com with glue and b.com without (its NS
	// host nsb.a.com is out of bailiwick, so com cannot carry glue
	// for it; the resolver side-resolves it through a.com).
	if h.com, err = serve("com.", "ns1.gtld.com.", "h.gtld.com.",
		rr("com.", 300, dnswire.NSRecord{NS: "ns1.gtld.com."}),
		rr("ns1.gtld.com.", 300, dnswire.ARecord{Addr: comIP}),
		rr("a.com.", 300, dnswire.NSRecord{NS: "ns1.a.com."}),
		rr("ns1.a.com.", 300, dnswire.ARecord{Addr: acomIP}), // glue
		rr("b.com.", 300, dnswire.NSRecord{NS: "nsb.a.com."})); err != nil {
		return err
	}

	// Root zone: delegates com, with glue for the TLD.
	if h.root, err = serve(".", "ns1.root.", "h.root.",
		rr(".", 300, dnswire.NSRecord{NS: "ns1.root."}),
		rr("ns1.root.", 300, dnswire.ARecord{Addr: rootIP}),
		rr("com.", 300, dnswire.NSRecord{NS: "ns1.gtld.com."}),
		rr("ns1.gtld.com.", 300, dnswire.ARecord{Addr: comIP})); err != nil {
		return err
	}

	h.addrMap[rootIP] = h.root.Addr()
	h.addrMap[comIP] = h.com.Addr()
	h.addrMap[acomIP] = h.acom.Addr()
	h.addrMap[bcomIP] = h.bcom.Addr()
	return nil
}

func (h *hierarchy) iterative() *Iterative {
	return &Iterative{
		Roots: []string{h.root.Addr()},
		AddrToServer: func(addr netip.Addr) string {
			if real, ok := h.addrMap[addr]; ok {
				return real
			}
			return addr.String() + ":53"
		},
	}
}

func TestIterativeWalksDelegations(t *testing.T) {
	h := startHierarchy(t)
	it := h.iterative()
	resp, err := it.Resolve(context.Background(),
		dnswire.NewQuery(7, "www.a.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if resp.Header.ID != 7 {
		t.Errorf("ID = %d", resp.Header.ID)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if a := resp.Answers[0].Data.(dnswire.ARecord); a.Addr != netip.MustParseAddr("198.51.100.81") {
		t.Errorf("addr = %v", a.Addr)
	}
	// The walk must have touched root, com, and a.com exactly once each.
	for _, tc := range []struct {
		srv  *authserver.Server
		name string
	}{{h.root, "root"}, {h.com, "com"}, {h.acom, "a.com"}} {
		if n := len(tc.srv.QueryLog()); n != 1 {
			t.Errorf("%s server saw %d queries, want 1", tc.name, n)
		}
	}
	if n := len(h.bcom.QueryLog()); n != 0 {
		t.Errorf("b.com server saw %d queries, want 0", n)
	}
}

func TestIterativeWildcardThroughDelegation(t *testing.T) {
	h := startHierarchy(t)
	resp, err := h.iterative().Resolve(context.Background(),
		dnswire.NewQuery(8, "some-uuid-1234.a.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Name != "some-uuid-1234.a.com." {
		t.Fatalf("answers = %v", resp.Answers)
	}
}

func TestIterativeGluelessDelegation(t *testing.T) {
	h := startHierarchy(t)
	resp, err := h.iterative().Resolve(context.Background(),
		dnswire.NewQuery(9, "target.b.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve (glueless): %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if a := resp.Answers[0].Data.(dnswire.ARecord); a.Addr != netip.MustParseAddr("198.51.100.90") {
		t.Errorf("addr = %v", a.Addr)
	}
}

func TestIterativeCrossZoneCNAME(t *testing.T) {
	h := startHierarchy(t)
	resp, err := h.iterative().Resolve(context.Background(),
		dnswire.NewQuery(10, "alias.a.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve (CNAME restart): %v", err)
	}
	// CNAME plus the chased A from b.com.
	var sawCNAME, sawA bool
	for _, rr := range resp.Answers {
		switch d := rr.Data.(type) {
		case dnswire.CNAMERecord:
			if d.Target == "target.b.com." {
				sawCNAME = true
			}
		case dnswire.ARecord:
			if d.Addr == netip.MustParseAddr("198.51.100.90") {
				sawA = true
			}
		}
	}
	if !sawCNAME || !sawA {
		t.Fatalf("answers = %v (cname=%v a=%v)", resp.Answers, sawCNAME, sawA)
	}
}

func TestIterativeNXDomain(t *testing.T) {
	h := startHierarchy(t)
	resp, err := h.iterative().Resolve(context.Background(),
		dnswire.NewQuery(11, "nope.b.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestIterativeBehindCachingResolver(t *testing.T) {
	h := startHierarchy(t)
	res := New(nil)
	res.SetDefault(h.iterative())

	for i := 0; i < 3; i++ {
		resp, err := res.Resolve(context.Background(),
			dnswire.NewQuery(uint16(i), "www.a.com.", dnswire.TypeA))
		if err != nil {
			t.Fatalf("Resolve %d: %v", i, err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("answers = %v", resp.Answers)
		}
	}
	// The full walk happened once; the cache served the rest.
	total := len(h.root.QueryLog()) + len(h.com.QueryLog()) + len(h.acom.QueryLog())
	if total != 3 {
		t.Errorf("authoritative servers saw %d queries, want 3 (one walk)", total)
	}
}

func TestIterativeNoRoots(t *testing.T) {
	it := &Iterative{}
	if _, err := it.Resolve(context.Background(),
		dnswire.NewQuery(1, "x.", dnswire.TypeA)); err != ErrNoRoots {
		t.Fatalf("err = %v, want ErrNoRoots", err)
	}
}

func TestIterativeLameDelegation(t *testing.T) {
	// A com zone that delegates lame.com to a server that does not
	// exist anywhere.
	root := authserver.NewZone(".")
	if err := root.SetSOA("ns1.root.", "h.root.", 1); err != nil {
		t.Fatal(err)
	}
	mustAddT(t, root, "lame.com.", dnswire.NSRecord{NS: "ns.offline.example."})
	srv := authserver.NewServer(root)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	it := &Iterative{Roots: []string{srv.Addr()}}
	it.Client.Timeout = 300 * 1e6 // 300ms
	_, err := it.Resolve(context.Background(), dnswire.NewQuery(1, "x.lame.com.", dnswire.TypeA))
	if err == nil {
		t.Fatal("lame delegation resolved")
	}
	if !strings.Contains(err.Error(), "lame") && !strings.Contains(err.Error(), "dead end") &&
		!strings.Contains(err.Error(), "referral") {
		t.Logf("error (acceptable, any failure): %v", err)
	}
}

func mustAddT(t *testing.T, z *authserver.Zone, name dnswire.Name, data dnswire.RData) {
	t.Helper()
	if err := z.Add(dnswire.ResourceRecord{Name: name, TTL: 60, Data: data}); err != nil {
		t.Fatal(err)
	}
}

func TestQNameMinimizationHidesFullName(t *testing.T) {
	h := startHierarchy(t)
	it := h.iterative()
	it.MinimizeQNames = true
	resp, err := it.Resolve(context.Background(),
		dnswire.NewQuery(12, "www.a.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("Resolve (minimized): %v", err)
	}
	if len(resp.Answers) == 0 {
		t.Fatal("no answers")
	}
	// The root must only ever have seen "com." — never the full name.
	for _, e := range h.root.QueryLog() {
		if e.Name.Equal("www.a.com.") {
			t.Errorf("root saw the full query name %s", e.Name)
		}
		if !e.Name.Equal("com.") {
			t.Errorf("root saw %s, want only com.", e.Name)
		}
	}
	// The com TLD must only have seen "a.com.".
	for _, e := range h.com.QueryLog() {
		if e.Name.Equal("www.a.com.") {
			t.Errorf("com server saw the full query name")
		}
	}
	// The leaf zone, which is authoritative, sees the full name.
	sawFull := false
	for _, e := range h.acom.QueryLog() {
		if e.Name.Equal("www.a.com.") {
			sawFull = true
		}
	}
	if !sawFull {
		t.Error("authoritative server never received the full name")
	}
}

func TestQNameMinimizationSameAnswers(t *testing.T) {
	h := startHierarchy(t)
	plain := h.iterative()
	minimized := h.iterative()
	minimized.MinimizeQNames = true
	for _, name := range []dnswire.Name{"www.a.com.", "uuid-99.a.com.", "target.b.com."} {
		a, err := plain.Resolve(context.Background(), dnswire.NewQuery(1, name, dnswire.TypeA))
		if err != nil {
			t.Fatalf("plain %s: %v", name, err)
		}
		b, err := minimized.Resolve(context.Background(), dnswire.NewQuery(1, name, dnswire.TypeA))
		if err != nil {
			t.Fatalf("minimized %s: %v", name, err)
		}
		if len(a.Answers) != len(b.Answers) {
			t.Errorf("%s: %d answers plain vs %d minimized", name, len(a.Answers), len(b.Answers))
			continue
		}
		for i := range a.Answers {
			if a.Answers[i].String() != b.Answers[i].String() {
				t.Errorf("%s answer %d differs: %s vs %s", name, i, a.Answers[i], b.Answers[i])
			}
		}
	}
}
