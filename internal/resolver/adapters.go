package resolver

import (
	"context"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dot"
)

// The three transports are bindings of the wire clients' own methods:
// each client returns the one Timing itself, so there is no adapter
// type between a client and the policy layers.

// NewDo53 binds a Do53 stub client to one server address. A nil client
// uses the zero-value dnsclient defaults. The client's own UDP
// retransmission (Client.Retries) is protocol-level behavior and stays
// below this API; policy-layer retries stack above.
func NewDo53(addr string, c *dnsclient.Client) Resolver {
	if c == nil {
		c = &dnsclient.Client{}
	}
	return Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		resp, rtt, err := c.Exchange(ctx, addr, q)
		return resp, Timing{RoundTrip: rtt, Total: rtt}, err
	})
}

// NewDoH is a DoH client (already bound to its endpoint URL) as a
// Resolver.
func NewDoH(c *dohclient.Client) Resolver { return Func(c.Exchange) }

// NewDoT is a DoT client as a Resolver.
func NewDoT(c *dot.Client) Resolver { return Func(c.Exchange) }

// UpstreamAdapter exposes a Resolver under the one-return-value
// Resolve signature the recursive resolver's Upstream interface uses,
// so any transport (with any policy stack) can serve as a forwarding
// upstream:
//
//	res.SetDefault(resolver.UpstreamAdapter{R: resolver.WithRetry(
//		resolver.NewDo53(addr, nil), resolver.RetryPolicy{})})
//
// The adapter satisfies recursive.Upstream structurally; no import of
// the recursive package is needed.
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
