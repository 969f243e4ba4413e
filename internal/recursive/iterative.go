package recursive

import (
	"context"
	"errors"
	"fmt"
	"net/netip"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
)

// Iterative is a full iterative resolver: starting from root hints it
// follows referrals (NS records in the authority section plus glue)
// down the delegation tree until an authoritative answer arrives —
// what BIND does when the paper's public resolvers take a cache miss.
// It implements Upstream, so a caching Resolver can sit in front:
//
//	res := recursive.New(nil)
//	res.SetDefault(&recursive.Iterative{Roots: []string{rootAddr}})
type Iterative struct {
	// Roots are the root server addresses (host:port).
	Roots []string
	// Client performs the per-server exchanges.
	Client dnsclient.Client
	// AddrToServer maps an address learned from glue or NS
	// resolution to the dial string. The default appends the root
	// hints' port (real deployments: 53). Tests and split-horizon
	// setups can rewrite addresses to their actual listeners.
	AddrToServer func(addr netip.Addr) string
	// MinimizeQNames enables QNAME minimization (RFC 7816): each
	// ancestor zone is asked only about the next label (as an NS
	// query) instead of seeing the full name — the complementary
	// privacy measure to the encrypted transports the paper studies
	// (upstream servers learn less, not just on-path observers).
	MinimizeQNames bool
}

// Iterative resolution errors.
var (
	ErrNoRoots        = errors.New("recursive: iterative resolver has no root hints")
	ErrReferralLoop   = errors.New("recursive: referral limit exceeded")
	ErrLameDelegation = errors.New("recursive: lame delegation (referral without usable servers)")
)

// Resolve implements Upstream.
func (it *Iterative) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if len(it.Roots) == 0 {
		return nil, ErrNoRoots
	}
	if len(q.Questions) == 0 {
		return nil, errors.New("recursive: query has no question")
	}
	question := q.Questions[0]
	resp, err := it.resolveName(ctx, question.Name, question.Type, 0)
	if err != nil {
		return nil, err
	}
	resp.Header.ID = q.Header.ID
	resp.Header.RecursionDesired = q.Header.RecursionDesired
	return resp, nil
}

const (
	// maxReferrals bounds the delegation walk of one name.
	maxReferrals = 16
	// maxRestarts bounds cross-zone CNAME chases and glueless NS
	// side-resolutions, each a fresh walk from the roots.
	maxRestarts = 8
)

// resolveName walks the tree for (name, typ). depth counts restarts
// (cross-zone CNAME chases and glueless NS side-resolutions), each of
// which begins a fresh walk from the roots; it is bounded by maxRestarts
// so circular glueless delegations terminate instead of recursing.
func (it *Iterative) resolveName(ctx context.Context, name dnswire.Name, typ dnswire.Type, depth int) (*dnswire.Message, error) {
	if depth > maxRestarts {
		return nil, errors.New("recursive: restart limit exceeded (circular delegation or CNAME chain)")
	}
	servers := append([]string(nil), it.Roots...)
	// With minimization, expose one more label per zone cut; start by
	// asking about the top-level label only.
	labels := name.Labels()
	exposed := 1
	for hop := 0; hop < maxReferrals; hop++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		qname, qtype := name, typ
		if it.MinimizeQNames && exposed < len(labels) {
			qname = dnswire.NewName(joinLabels(labels[len(labels)-exposed:]))
			qtype = dnswire.TypeNS
		}
		resp, err := it.queryAny(ctx, servers, qname, qtype)
		if err != nil {
			return nil, err
		}
		if it.MinimizeQNames && exposed < len(labels) {
			// A minimized probe: referrals descend as usual; any
			// terminal answer (the cut's own NS, NoData, NXDOMAIN for
			// an empty non-terminal) means this server is already
			// authoritative for the probed name — expose more labels
			// and ask again at the same servers.
			if len(resp.Authorities) > 0 && hasNS(resp.Authorities) && !resp.Header.Authoritative {
				next, err := it.serversFromReferral(ctx, resp, depth)
				if err != nil {
					return nil, err
				}
				servers = next
			}
			exposed++
			continue
		}
		switch {
		case len(resp.Answers) > 0:
			// Authoritative answer — but a bare CNAME pointing out of
			// this server's zones needs a restart at the target.
			if target, bare := bareCNAME(resp, typ); bare {
				chained, err := it.resolveName(ctx, target, typ, depth+1)
				if err != nil {
					return nil, err
				}
				merged := resp
				merged.Answers = append(merged.Answers, chained.Answers...)
				merged.Header.RCode = chained.Header.RCode
				return merged, nil
			}
			return resp, nil
		case resp.Header.RCode == dnswire.RCodeNXDomain,
			resp.Header.Authoritative && resp.Header.RCode == dnswire.RCodeNoError:
			// Authoritative negative (NXDOMAIN or NoData).
			return resp, nil
		case len(resp.Authorities) > 0 && hasNS(resp.Authorities):
			next, err := it.serversFromReferral(ctx, resp, depth)
			if err != nil {
				return nil, err
			}
			servers = next
		default:
			return nil, fmt.Errorf("recursive: dead end resolving %s %s (rcode %s)",
				name, typ, resp.Header.RCode)
		}
	}
	return nil, ErrReferralLoop
}

// queryAny tries the servers in order, returning the first response.
func (it *Iterative) queryAny(ctx context.Context, servers []string, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
	var lastErr error
	for _, server := range servers {
		q := dnswire.NewQuery(dnsclient.RandomID(), name, typ)
		q.Header.RecursionDesired = false // iterative: never ask for recursion
		resp, _, err := it.Client.Exchange(ctx, server, q)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Header.RCode == dnswire.RCodeServFail || resp.Header.RCode == dnswire.RCodeRefused {
			lastErr = fmt.Errorf("recursive: %s answered %s for %s", server, resp.Header.RCode, name)
			continue
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = ErrLameDelegation
	}
	return nil, lastErr
}

// serversFromReferral extracts the next server set from a referral:
// glue addresses when present, otherwise a bounded side-resolution of
// the NS names.
func (it *Iterative) serversFromReferral(ctx context.Context, resp *dnswire.Message, depth int) ([]string, error) {
	glue := map[dnswire.Name][]netip.Addr{}
	for _, rr := range resp.Additionals {
		if a, ok := rr.Data.(dnswire.ARecord); ok {
			glue[rr.Name.Canonical()] = append(glue[rr.Name.Canonical()], a.Addr)
		}
	}
	toServer := it.AddrToServer
	if toServer == nil {
		port := referralPort(it.Roots)
		toServer = func(addr netip.Addr) string {
			return netip.AddrPortFrom(addr, port).String()
		}
	}
	var out []string
	var gluelessNS []dnswire.Name
	for _, rr := range resp.Authorities {
		ns, ok := rr.Data.(dnswire.NSRecord)
		if !ok {
			continue
		}
		if addrs, ok := glue[ns.NS.Canonical()]; ok {
			for _, addr := range addrs {
				out = append(out, toServer(addr))
			}
		} else {
			gluelessNS = append(gluelessNS, ns.NS)
		}
	}
	if len(out) > 0 {
		return out, nil
	}
	// Glueless delegation: resolve one NS name from the top (depth-
	// bounded — a glueless NS inside its own child zone is circular).
	for _, nsName := range gluelessNS {
		nsResp, err := it.resolveName(ctx, nsName, dnswire.TypeA, depth+1)
		if err != nil {
			continue
		}
		for _, rr := range nsResp.Answers {
			if a, ok := rr.Data.(dnswire.ARecord); ok {
				out = append(out, toServer(a.Addr))
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
	return nil, ErrLameDelegation
}

// referralPort infers the DNS port from the root hints so loopback
// hierarchies on ephemeral ports work; defaults to 53.
func referralPort(roots []string) uint16 {
	for _, r := range roots {
		if ap, err := netip.ParseAddrPort(r); err == nil {
			return ap.Port()
		}
	}
	return 53
}

// bareCNAME reports whether the answers end at a CNAME without the
// queried type, returning the final target to chase.
func bareCNAME(resp *dnswire.Message, typ dnswire.Type) (dnswire.Name, bool) {
	if typ == dnswire.TypeCNAME {
		return "", false
	}
	var lastTarget dnswire.Name
	sawWanted := false
	for _, rr := range resp.Answers {
		if rr.Type == typ {
			sawWanted = true
		}
		if cn, ok := rr.Data.(dnswire.CNAMERecord); ok {
			lastTarget = cn.Target
		}
	}
	if sawWanted || lastTarget == "" {
		return "", false
	}
	return lastTarget, true
}

func hasNS(rrs []dnswire.ResourceRecord) bool {
	for _, rr := range rrs {
		if rr.Type == dnswire.TypeNS {
			return true
		}
	}
	return false
}

// joinLabels renders labels back into a dotted absolute name.
func joinLabels(labels []string) string {
	out := ""
	for _, l := range labels {
		out += l + "."
	}
	return out
}
