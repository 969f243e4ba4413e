package resolver

import (
	"context"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dot"
)

// NewDo53 wraps a Do53 stub client as a Resolver bound to one server
// address. A nil client uses the zero-value dnsclient defaults. The
// client's own UDP retransmission (Client.Retries) is protocol-level
// behavior and stays below this API; policy-layer retries stack above.
func NewDo53(addr string, c *dnsclient.Client) Resolver {
	if c == nil {
		c = &dnsclient.Client{}
	}
	return &do53Resolver{addr: addr, client: c}
}

type do53Resolver struct {
	addr   string
	client *dnsclient.Client
}

func (r *do53Resolver) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	resp, t, err := r.client.ExchangeTimed(ctx, r.addr, q)
	return resp, fromBreakdown(t), err
}

// NewDoH wraps a DoH client (already bound to its endpoint URL) as a
// Resolver.
func NewDoH(c *dohclient.Client) Resolver {
	return &dohResolver{client: c}
}

type dohResolver struct {
	client *dohclient.Client
}

func (r *dohResolver) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	resp, t, err := r.client.Exchange(ctx, q)
	return resp, fromBreakdown(t), err
}

// NewDoT wraps a DoT client as a Resolver.
func NewDoT(c *dot.Client) Resolver {
	return &dotResolver{client: c}
}

type dotResolver struct {
	client *dot.Client
}

func (r *dotResolver) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	resp, t, err := r.client.Exchange(ctx, q)
	return resp, fromBreakdown(t), err
}

// fromBreakdown assembles a unified Timing for a single transport
// attempt from the wire client's.
func fromBreakdown(t dnsclient.Timing) Timing {
	return Timing{
		DNSLookup:    t.DNSLookup,
		Connect:      t.Connect,
		TLSHandshake: t.TLSHandshake,
		RoundTrip:    t.RoundTrip,
		Total:        t.Total,
		Reused:       t.Reused,
		Attempts:     1,
	}
}

// UpstreamAdapter exposes a Resolver under the one-return-value
// Resolve signature the recursive resolver's Upstream interface uses,
// so any transport (with any policy stack) can serve as a forwarding
// upstream:
//
//	res.SetDefault(resolver.UpstreamAdapter{R: resolver.WithRetry(
//		resolver.NewDo53(addr, nil), resolver.RetryPolicy{})})
//
// The adapter satisfies recursive.Upstream structurally; no import of
// the recursive package is needed (or possible — it would cycle).
type UpstreamAdapter struct {
	// R performs the resolution.
	R Resolver
	// Metrics, when non-nil, counts queries and drops crossing the
	// adapter.
	Metrics *Metrics
}

// Resolve implements the Upstream shape.
func (u UpstreamAdapter) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if u.Metrics != nil {
		u.Metrics.Queries.Add(1)
	}
	resp, _, err := u.R.Resolve(ctx, q)
	if err != nil && u.Metrics != nil {
		u.Metrics.Failures.Add(1)
	}
	return resp, err
}
