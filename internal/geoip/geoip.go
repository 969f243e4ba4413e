// Package geoip is the reproduction's stand-in for the Maxmind
// geolocation service the paper uses to cross-check BrightData's
// country labels. It allocates synthetic /24 prefixes to countries
// and answers prefix-to-country lookups with a configurable error
// rate: the paper discarded the 0.88% of data points where Maxmind
// and the proxy network disagreed about an exit node's country.
package geoip

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"sync"

	"repro/internal/world"
)

// DefaultMismatchRate reproduces the paper's observed 0.88% rate of
// country-label disagreements.
const DefaultMismatchRate = 0.0088

// Allocator hands out synthetic /24 prefixes per country. Prefixes
// are carved from 10.0.0.0/8: each country gets a contiguous range of
// /24s in code order, large enough for its exit-node population.
type Allocator struct {
	mu     sync.Mutex
	bases  map[string]int // country code -> base /24 index
	next   map[string]int // country code -> next host counter
	blocks int            // /24 blocks per country
}

// NewAllocator builds an allocator with room for blocks /24s per
// country (default 256).
func NewAllocator(blocks int) *Allocator {
	if blocks <= 0 {
		blocks = 256
	}
	a := &Allocator{
		bases:  make(map[string]int),
		next:   make(map[string]int),
		blocks: blocks,
	}
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

// Next returns a fresh address in the given country's space. Each
// call yields a distinct address; consecutive calls walk /24s so that
// clients land in many distinct prefixes (the paper keys clients by
// /24).
func (a *Allocator) Next(countryCode string) (netip.Addr, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	base, ok := a.bases[countryCode]
	if !ok {
		return netip.Addr{}, fmt.Errorf("geoip: unknown country %q", countryCode)
	}
	n := a.next[countryCode]
	a.next[countryCode] = n + 1
	blockIdx := base + n%a.blocks
	host := 1 + (n/a.blocks)%254
	b1 := 10
	b2 := (blockIdx >> 8) % 256
	b3 := blockIdx % 256
	return netip.AddrFrom4([4]byte{byte(b1), byte(b2), byte(b3), byte(host)}), nil
}

// CountryOfPrefix recovers the true country that owns addr's /24.
func (a *Allocator) CountryOfPrefix(addr netip.Addr) (string, bool) {
	if !addr.Is4() {
		return "", false
	}
	b := addr.As4()
	if b[0] != 10 {
		return "", false
	}
	blockIdx := int(b[1])<<8 | int(b[2])
	a.mu.Lock()
	defer a.mu.Unlock()
	for code, base := range a.bases {
		if blockIdx >= base && blockIdx < base+a.blocks {
			return code, true
		}
	}
	return "", false
}

// Prefix24 returns the /24 prefix containing addr, the granularity at
// which the paper geolocates clients (it never stores full IPs).
func Prefix24(addr netip.Addr) netip.Prefix {
	return netip.PrefixFrom(addr, 24).Masked()
}

// Service answers geolocation lookups, imitating Maxmind: mostly
// correct, with a deterministic pseudo-random MismatchRate fraction of
// prefixes mislabeled to a neighboring country entry.
type Service struct {
	// Alloc recovers ground truth.
	Alloc *Allocator
	// MismatchRate is the fraction of prefixes answered incorrectly.
	MismatchRate float64
}

// NewService wraps alloc with the default mismatch rate.
func NewService(alloc *Allocator) *Service {
	return &Service{Alloc: alloc, MismatchRate: DefaultMismatchRate}
}

// Locate returns the service's belief about the country owning addr's
// /24. The mislabeling decision is a deterministic hash of the
// prefix, so repeated lookups agree (as a real database would).
func (s *Service) Locate(addr netip.Addr) (string, bool) {
	truth, ok := s.Alloc.CountryOfPrefix(addr)
	if !ok {
		return "", false
	}
	if s.MismatchRate <= 0 {
		return truth, true
	}
	// The hash is over the prefix's text form, "10.1.2.0/24".
	var text [32]byte
	h := fnv.New32a()
	h.Write(Prefix24(addr).AppendTo(text[:0]))
	sum := h.Sum32()
	u := float64(sum) / float64(1<<32)
	if u >= s.MismatchRate {
		return truth, true
	}
	// Mislabel: pick a deterministic other country.
	all := world.All()
	idx := int(sum>>8) % len(all)
	if all[idx].Code == truth {
		idx = (idx + 1) % len(all)
	}
	return all[idx].Code, true
}
