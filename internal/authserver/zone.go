// Package authserver implements an authoritative DNS name server in
// the spirit of the paper's BIND9 deployment for the a.com measurement
// zone: a static zone store with wildcard support (so that every
// <UUID>.a.com cache-busting subdomain resolves), serving over UDP and
// TCP, and a query log that records which recursive resolvers contact
// the server — the paper's mechanism for discovering DoH provider
// points of presence.
package authserver

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/dnswire"
)

// rrKey identifies one RRset within a zone.
type rrKey struct {
	name dnswire.Name
	typ  dnswire.Type
}

// Zone is a thread-safe authoritative zone.
type Zone struct {
	origin dnswire.Name

	mu       sync.RWMutex
	rrsets   map[rrKey][]dnswire.ResourceRecord
	names    map[dnswire.Name]bool // existing names (owners, wildcards, empty non-terminals)
	soa      dnswire.ResourceRecord
	haveSOA  bool
	nsNames  []dnswire.ResourceRecord
	wildcard map[dnswire.Name][]dnswire.ResourceRecord // wildcard base name -> records (none for an empty non-terminal)
	// delegations maps subzone cuts (NS records below the apex) to
	// their NS RRsets; queries at or under a cut yield referrals.
	delegations map[dnswire.Name][]dnswire.ResourceRecord
}

// NewZone creates an empty zone rooted at origin.
func NewZone(origin dnswire.Name) *Zone {
	return &Zone{
		origin:      origin.Canonical(),
		rrsets:      make(map[rrKey][]dnswire.ResourceRecord),
		names:       make(map[dnswire.Name]bool),
		wildcard:    make(map[dnswire.Name][]dnswire.ResourceRecord),
		delegations: make(map[dnswire.Name][]dnswire.ResourceRecord),
	}
}

// Origin returns the zone apex name.
func (z *Zone) Origin() dnswire.Name { return z.origin }

// Add inserts a record. Wildcard owner names ("*.a.com.") register
// wildcard RRsets that synthesize answers for names under their base
// that do not exist (RFC 4592).
func (z *Zone) Add(rr dnswire.ResourceRecord) error {
	name := rr.Name.Canonical()
	if rr.Data == nil {
		return fmt.Errorf("authserver: record %s has nil data", rr.Name)
	}
	if rr.Type == 0 {
		rr.Type = rr.Data.Type()
	}
	if rr.Class == 0 {
		rr.Class = dnswire.ClassIN
	}
	// A record the wire cannot carry (a label over 63 octets, a TXT
	// string over 255 bytes) would leave every answer holding it
	// unpackable: the codec's limits refuse it here, once.
	if _, err := (&dnswire.Message{Answers: []dnswire.ResourceRecord{rr}}).AppendPack(nil); err != nil {
		return fmt.Errorf("authserver: record %s: %w", rr.Name, err)
	}
	wildcard := isWildcard(name)
	base := name
	if wildcard {
		base = name.Parent()
	}
	if !base.IsSubdomainOf(z.origin) {
		return fmt.Errorf("authserver: %s is outside zone %s", rr.Name, z.origin)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.register(name)
	if wildcard {
		z.wildcard[base] = append(z.wildcard[base], rr)
		return nil
	}
	z.rrsets[rrKey{name, rr.Type}] = append(z.rrsets[rrKey{name, rr.Type}], rr)
	if rr.Type == dnswire.TypeSOA && name.Equal(z.origin) {
		z.soa = rr
		z.haveSOA = true
	}
	if rr.Type == dnswire.TypeNS && name.Equal(z.origin) {
		z.nsNames = append(z.nsNames, rr)
	}
	if rr.Type == dnswire.TypeNS && !name.Equal(z.origin) {
		// An NS set below the apex is a zone cut: authority for the
		// subtree is delegated to the child zone's servers.
		z.delegations[name] = append(z.delegations[name], rr)
	}
	return nil
}

// register marks name and every empty non-terminal above it, up to the
// apex, as existing. A wildcard among them is a source of synthesis for
// its parent even when it owns no records itself (RFC 4592 §4.9, an
// empty non-terminal wildcard): what it synthesizes is NODATA, not
// NXDOMAIN.
func (z *Zone) register(name dnswire.Name) {
	for n := name; ; n = n.Parent() {
		z.names[n] = true
		if isWildcard(n) {
			if _, ok := z.wildcard[n.Parent()]; !ok {
				z.wildcard[n.Parent()] = nil
			}
		}
		if n.Equal(z.origin) || n.IsRoot() {
			break
		}
	}
}

// isWildcard reports whether name's first label is "*".
func isWildcard(name dnswire.Name) bool { return strings.HasPrefix(string(name), "*.") }

// SetSOA installs a standard SOA at the apex.
func (z *Zone) SetSOA(mname, rname dnswire.Name, serial uint32) error {
	return z.Add(dnswire.ResourceRecord{
		Name: z.origin, Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.SOARecord{
			MName: mname, RName: rname, Serial: serial,
			Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 60,
		},
	})
}

// LookupResult classifies a zone lookup.
type LookupResult int

// Lookup outcomes.
const (
	// Success: records found for the exact (name, type).
	Success LookupResult = iota
	// NoData: the name exists but has no records of the asked type.
	NoData
	// NXDomain: the name does not exist in the zone.
	NXDomain
	// NotInZone: the name is outside this zone's authority.
	NotInZone
	// Delegation: the name sits at or under a zone cut; the returned
	// records are the cut's NS RRset (a referral).
	Delegation
)

// Lookup resolves (name, typ) within the zone, applying wildcard
// synthesis (RFC 4592): a wildcard answers only for a name that does not
// exist, and only the wildcard directly below the name's closest
// encloser — its nearest existing ancestor — may. The records are the
// caller's own copy.
func (z *Zone) Lookup(name dnswire.Name, typ dnswire.Type) ([]dnswire.ResourceRecord, LookupResult) {
	return z.lookupInto(nil, name, typ)
}

// lookupInto is Lookup with an answer's records (Success) appended to
// dst, so a server builds the answer section in its reply's own storage;
// a referral's NS set is a fresh copy. Nothing returned aliases the
// zone's storage.
func (z *Zone) lookupInto(dst []dnswire.ResourceRecord, name dnswire.Name, typ dnswire.Type) ([]dnswire.ResourceRecord, LookupResult) {
	name = name.Canonical()
	if !name.IsSubdomainOf(z.origin) {
		return nil, NotInZone
	}
	z.mu.RLock()
	defer z.mu.RUnlock()

	// Zone cuts take precedence over everything under them (RFC 1034
	// §4.3.2 step 3b): a query at or below a delegation point gets a
	// referral, except an NS query at the cut itself, which is also
	// answered from the delegation set.
	for n := name; !n.Equal(z.origin) && !n.IsRoot(); n = n.Parent() {
		if ns, ok := z.delegations[n]; ok {
			return append([]dnswire.ResourceRecord(nil), ns...), Delegation
		}
	}

	if z.names[name] {
		if isWildcard(name) {
			// The wildcard's own name is answered from its records as
			// they stand (RFC 4592 §2.3: in a query it is not special).
			return synthesize(dst, z.wildcard[name.Parent()], name, typ)
		}
		if rrs := z.rrsets[rrKey{name, typ}]; len(rrs) > 0 && typ != dnswire.TypeANY {
			return append(dst, rrs...), Success
		}
		// CNAME at the name answers any type (except when the query
		// asked for the CNAME itself, handled above).
		if rrs := z.rrsets[rrKey{name, dnswire.TypeCNAME}]; len(rrs) > 0 && typ != dnswire.TypeCNAME {
			return append(dst, rrs...), Success
		}
		if typ == dnswire.TypeANY {
			n := len(dst)
			for k, rrs := range z.rrsets {
				if k.name == name {
					dst = append(dst, rrs...)
				}
			}
			if len(dst) > n {
				return dst, Success
			}
		}
		return nil, NoData
	}

	// The name does not exist: find its closest encloser (RFC 4592
	// §3.3.1). Only a wildcard directly below it synthesizes; one
	// further up is shadowed by the existing name between.
	ce := name
	for ce != z.origin {
		ce = ce.Parent()
		if z.names[ce] {
			break
		}
	}
	if rrs, ok := z.wildcard[ce]; ok {
		return synthesize(dst, rrs, name, typ)
	}
	return nil, NXDomain
}

// synthesize appends the wildcard's records of the asked type (every
// record for ANY), or failing those its CNAME, to dst with name as their
// owner.
func synthesize(dst, rrs []dnswire.ResourceRecord, name dnswire.Name, typ dnswire.Type) ([]dnswire.ResourceRecord, LookupResult) {
	n := len(dst)
	for _, rr := range rrs {
		if rr.Type == typ || typ == dnswire.TypeANY {
			rr.Name = name
			dst = append(dst, rr)
		}
	}
	if len(dst) == n {
		for _, rr := range rrs {
			if rr.Type == dnswire.TypeCNAME {
				rr.Name = name
				dst = append(dst, rr)
			}
		}
	}
	if len(dst) == n {
		return nil, NoData
	}
	return dst, Success
}

// Glue returns address records stored at name even when the name
// sits below a zone cut — the lookup path used to attach glue to
// referrals (a normal Lookup would return Delegation there).
func (z *Zone) Glue(name dnswire.Name, typ dnswire.Type) []dnswire.ResourceRecord {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return append([]dnswire.ResourceRecord(nil), z.rrsets[rrKey{name.Canonical(), typ}]...)
}

// SOA returns the apex SOA record for negative responses.
func (z *Zone) SOA() (dnswire.ResourceRecord, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.soa, z.haveSOA
}

// NS returns the apex NS RRset.
func (z *Zone) NS() []dnswire.ResourceRecord {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return append([]dnswire.ResourceRecord(nil), z.nsNames...)
}

// Len reports the number of explicit (non-wildcard) RRsets.
func (z *Zone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.rrsets)
}

// String summarizes the zone for logs.
func (z *Zone) String() string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "zone %s: %d rrsets, %d wildcard bases", z.origin, len(z.rrsets), len(z.wildcard))
	return sb.String()
}
