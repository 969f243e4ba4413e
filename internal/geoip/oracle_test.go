package geoip

import (
	"hash/fnv"
	"net/netip"
	"sort"
	"testing"

	"repro/internal/world"
)

// oracleAllocator is the Allocator's lookup side as it stood before
// the shared code table, verbatim: its own sorted copy of the world,
// a code -> base map, and CountryOfPrefix as a walk over that map.
// It answers deterministically only while no two ranges overlap, that
// is for blocks up to 292.
type oracleAllocator struct {
	bases  map[string]int
	blocks int
}

func newOracleAllocator(blocks int) *oracleAllocator {
	a := &oracleAllocator{bases: make(map[string]int), blocks: blocks}
	var codes []string
	for _, ct := range world.All() {
		codes = append(codes, ct.Code)
	}
	sort.Strings(codes)
	for i, code := range codes {
		a.bases[code] = i * blocks
	}
	return a
}

func (a *oracleAllocator) CountryOfPrefix(addr netip.Addr) (string, bool) {
	if !addr.Is4() {
		return "", false
	}
	b := addr.As4()
	if b[0] != 10 {
		return "", false
	}
	blockIdx := int(b[1])<<8 | int(b[2])
	for code, base := range a.bases {
		if blockIdx >= base && blockIdx < base+a.blocks {
			return code, true
		}
	}
	return "", false
}

// oracleLocate is Service.Locate before the shared code table, given
// the oracle's truth for addr: the mislabel copies and sorts the whole
// world.
func oracleLocate(truth string, rate float64, addr netip.Addr) string {
	h := fnv.New32a()
	h.Write([]byte(Prefix24(addr).String()))
	sum := h.Sum32()
	if float64(sum)/float64(1<<32) >= rate {
		return truth
	}
	all := world.All()
	idx := int(sum>>8) % len(all)
	if all[idx].Code == truth {
		idx = (idx + 1) % len(all)
	}
	return all[idx].Code
}

// TestSharedTableMatchesOracle holds CountryOfPrefix and Locate to the
// map-walking oracle on every /24 of 10.0.0.0/8 (every 17th under the
// race detector), for each block count whose ranges fit the space (292
// is the largest), and checks that the addresses Next hands out are
// the ones the oracle's ranges place.
func TestSharedTableMatchesOracle(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 17
	}
	for _, blocks := range []int{16, 64, 256, 292} {
		a, o := NewAllocator(blocks), newOracleAllocator(blocks)
		svc := NewService(a)
		mismatches := 0
		for b := 0; b < prefixes24; b += stride {
			addr := netip.AddrFrom4([4]byte{10, byte(b >> 8), byte(b), 1})
			truth, gotOK := a.CountryOfPrefix(addr)
			want, wantOK := o.CountryOfPrefix(addr)
			if truth != want || gotOK != wantOK {
				t.Fatalf("blocks=%d: CountryOfPrefix(%v) = %q, %v; oracle %q, %v", blocks, addr, truth, gotOK, want, wantOK)
			}
			got, gotOK := svc.Locate(addr)
			if wantOK {
				want = oracleLocate(want, svc.MismatchRate, addr)
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("blocks=%d: Locate(%v) = %q, %v; oracle %q, %v", blocks, addr, got, gotOK, want, wantOK)
			}
			if got != truth {
				mismatches++
			}
		}
		if mismatches == 0 {
			t.Errorf("blocks=%d: no mislabeled prefix; the mislabel branch went unchecked", blocks)
		}
		for _, code := range []string{"AD", "BR", "US", "ZW", "DJF"} {
			for n := 0; n < 2*blocks; n++ {
				addr, err := a.Next(code)
				if err != nil {
					t.Fatal(err)
				}
				base, blockIdx := o.bases[code], int(addr.As4()[1])<<8|int(addr.As4()[2])
				if blockIdx != base+n%blocks || int(addr.As4()[3]) != 1+n/blocks {
					t.Fatalf("blocks=%d: %s call %d = %v, want /24 %d host %d", blocks, code, n, addr, base+n%blocks, 1+n/blocks)
				}
			}
		}
	}
}

// TestAllocatorClampsBlocks: a block count whose ranges would not fit
// in 10.0.0.0/8 is clamped, so no two countries share a /24 and every
// address maps back to the country it was handed to.
func TestAllocatorClampsBlocks(t *testing.T) {
	a := NewAllocator(1000)
	if a.blocks != prefixes24/len(world.All()) {
		t.Fatalf("NewAllocator(1000) keeps %d blocks per country, want %d", a.blocks, prefixes24/len(world.All()))
	}
	owner := make(map[netip.Prefix]string)
	for _, ct := range world.All() {
		for n := 0; n < a.blocks+10; n++ {
			addr, err := a.Next(ct.Code)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := a.CountryOfPrefix(addr); !ok || got != ct.Code {
				t.Fatalf("%s's address %v maps to %q, %v", ct.Code, addr, got, ok)
			}
			p := Prefix24(addr)
			if prev, seen := owner[p]; seen && prev != ct.Code {
				t.Fatalf("%v handed to both %s and %s", p, prev, ct.Code)
			}
			owner[p] = ct.Code
		}
	}
}
