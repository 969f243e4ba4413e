package geoip

import (
	"net/netip"
	"testing"

	"repro/internal/world"
)

func TestAllocatorDistinctAddresses(t *testing.T) {
	a := NewAllocator(16)
	seen := map[netip.Addr]bool{}
	for i := 0; i < 100; i++ {
		addr, err := a.Next("BR")
		if err != nil {
			t.Fatal(err)
		}
		if seen[addr] {
			t.Fatalf("duplicate address %v at i=%d", addr, i)
		}
		seen[addr] = true
	}
}

func TestAllocatorRoundTrip(t *testing.T) {
	a := NewAllocator(16)
	for _, code := range []string{"US", "BR", "TD", "JP", "SE"} {
		addr, err := a.Next(code)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := a.CountryOfPrefix(addr)
		if !ok || got != code {
			t.Errorf("CountryOfPrefix(%v) = %q, %v; want %q", addr, got, ok, code)
		}
	}
}

// TestAllocatorResetMatchesFresh: after handing out addresses in
// several countries, a Reset allocator hands out what a new one with
// the same block count does, in every country.
func TestAllocatorResetMatchesFresh(t *testing.T) {
	codes := []string{"BR", "US", "BR", "JP", "LU", "BR"}
	for _, blocks := range []int{0, 16} {
		reused := NewAllocator(blocks)
		for i := 0; i < 300; i++ {
			if _, err := reused.Next(codes[i%len(codes)]); err != nil {
				t.Fatal(err)
			}
		}
		reused.Reset()
		fresh := NewAllocator(blocks)
		for i := 0; i < 300; i++ {
			code := codes[(i*5)%len(codes)]
			got, err := reused.Next(code)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := fresh.Next(code); got != want {
				t.Fatalf("blocks %d, call %d (%s): a Reset allocator gave %v, a new one %v", blocks, i, code, got, want)
			}
		}
	}
}

func TestAllocatorUnknownCountry(t *testing.T) {
	a := NewAllocator(16)
	if _, err := a.Next("XX"); err == nil {
		t.Fatal("Next(XX) succeeded")
	}
}

func TestAllocatorSpreadsAcrossPrefixes(t *testing.T) {
	a := NewAllocator(64)
	prefixes := map[netip.Prefix]bool{}
	for i := 0; i < 64; i++ {
		addr, err := a.Next("DE")
		if err != nil {
			t.Fatal(err)
		}
		prefixes[Prefix24(addr)] = true
	}
	if len(prefixes) != 64 {
		t.Errorf("64 clients landed in %d prefixes, want 64 (unique /24 per client)", len(prefixes))
	}
}

func TestCountryOfPrefixForeign(t *testing.T) {
	a := NewAllocator(16)
	if _, ok := a.CountryOfPrefix(netip.MustParseAddr("8.8.8.8")); ok {
		t.Error("non-10/8 address located")
	}
	if _, ok := a.CountryOfPrefix(netip.MustParseAddr("2001:db8::1")); ok {
		t.Error("IPv6 address located")
	}
}

func TestServiceMostlyCorrect(t *testing.T) {
	a := NewAllocator(256)
	s := NewService(a)
	mismatches := 0
	total := 0
	for _, ct := range world.Analyzed() {
		for i := 0; i < 20; i++ {
			addr, err := a.Next(ct.Code)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := s.Locate(addr)
			if !ok {
				t.Fatalf("Locate(%v) failed", addr)
			}
			total++
			if got != ct.Code {
				mismatches++
			}
		}
	}
	rate := float64(mismatches) / float64(total)
	if rate > 0.03 {
		t.Errorf("mismatch rate = %.4f, want <= 0.03 (paper: 0.0088)", rate)
	}
	if mismatches == 0 {
		t.Error("mismatch rate = 0; the service must sometimes disagree (paper: 0.88%)")
	}
}

func TestServiceDeterministic(t *testing.T) {
	a := NewAllocator(64)
	s := NewService(a)
	addr, err := a.Next("FR")
	if err != nil {
		t.Fatal(err)
	}
	first, _ := s.Locate(addr)
	for i := 0; i < 10; i++ {
		if got, _ := s.Locate(addr); got != first {
			t.Fatal("Locate flip-flops for the same address")
		}
	}
}

func TestServiceZeroMismatch(t *testing.T) {
	a := NewAllocator(64)
	s := &Service{Alloc: a, MismatchRate: 0}
	for i := 0; i < 50; i++ {
		addr, err := a.Next("IT")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := s.Locate(addr); got != "IT" {
			t.Fatalf("zero-mismatch service mislabeled %v as %s", addr, got)
		}
	}
}

func TestPrefix24(t *testing.T) {
	p := Prefix24(netip.MustParseAddr("10.1.2.3"))
	if p.String() != "10.1.2.0/24" {
		t.Errorf("Prefix24 = %v", p)
	}
}

// Locate runs once per simulated client; it hashes the prefix's text
// form from a stack buffer.
func TestLocateAllocationFree(t *testing.T) {
	alloc := NewAllocator(0)
	svc := NewService(alloc)
	addr, err := alloc.Next("BR")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { svc.Locate(addr) }); n != 0 {
		t.Errorf("Locate allocates %v times per call, want 0", n)
	}
}
