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
	"sync"

	"repro/internal/world"
)

// DefaultMismatchRate reproduces the paper's observed 0.88% rate of
// country-label disagreements.
const DefaultMismatchRate = 0.0088

// prefixes24 is the number of /24s in 10.0.0.0/8, the space every
// country's prefixes are carved from.
const prefixes24 = 1 << 16

// worldCodes is every country code in sorted order, and each code's
// position in it: country i owns the /24s from i×blocks on. Built once
// per process and never written, so every Allocator and Service reads
// it without a lock.
type worldCodes struct {
	codes []string
	index map[string]int
}

var sharedCodes = sync.OnceValue(func() *worldCodes {
	all := world.All() // sorted by code
	w := &worldCodes{codes: make([]string, len(all)), index: make(map[string]int, len(all))}
	for i, ct := range all {
		w.codes[i] = ct.Code
		w.index[ct.Code] = i
	}
	return w
})

// Allocator hands out synthetic /24 prefixes per country. Prefixes
// are carved from 10.0.0.0/8: each country gets a contiguous range of
// /24s in code order, large enough for its exit-node population. The
// ranges are the shared code table's; an Allocator owns only its
// per-country counters.
type Allocator struct {
	mu     sync.Mutex
	next   []int // by code position: the next host counter
	blocks int   // /24 blocks per country
}

// NewAllocator builds an allocator with room for blocks /24s per
// country (default 256). Every country's range must fit in
// 10.0.0.0/8, so blocks is clamped to the largest count that does:
// 65,536 /24s over the world's countries, 292 for its 224.
func NewAllocator(blocks int) *Allocator {
	if blocks <= 0 {
		blocks = 256
	}
	w := sharedCodes()
	blocks = min(blocks, prefixes24/len(w.codes))
	return &Allocator{next: make([]int, len(w.codes)), blocks: blocks}
}

// Reset clears the per-country counters: the addresses that follow are
// a new allocator's with the same block count.
func (a *Allocator) Reset() {
	a.mu.Lock()
	clear(a.next)
	a.mu.Unlock()
}

// Next returns a fresh address in the given country's space.
// Consecutive calls walk /24s so that clients land in many distinct
// prefixes (the paper keys clients by /24). The first blocks×254 calls
// for a country yield distinct addresses; after that the country's
// addresses repeat from its first.
func (a *Allocator) Next(countryCode string) (netip.Addr, error) {
	i, ok := sharedCodes().index[countryCode]
	if !ok {
		return netip.Addr{}, fmt.Errorf("geoip: unknown country %q", countryCode)
	}
	a.mu.Lock()
	n := a.next[i]
	a.next[i] = n + 1
	a.mu.Unlock()
	blockIdx := i*a.blocks + n%a.blocks
	host := 1 + (n/a.blocks)%254
	return netip.AddrFrom4([4]byte{10, byte(blockIdx >> 8), byte(blockIdx), byte(host)}), nil
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
	codes := sharedCodes().codes
	i := (int(b[1])<<8 | int(b[2])) / a.blocks
	if i >= len(codes) {
		return "", false
	}
	return codes[i], true
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
	codes := sharedCodes().codes
	idx := int(sum>>8) % len(codes)
	if codes[idx] == truth {
		idx = (idx + 1) % len(codes)
	}
	return codes[idx], true
}
