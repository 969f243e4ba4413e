// Package resolver defines the transport-agnostic resolution API the
// measurement harness is built on. The paper issues the same query
// over several transports — conventional Do53, DoH (RFC 8484), and
// DoT (RFC 7858) — and must survive lossy residential paths; this
// package gives every transport one interface
//
//	Resolve(ctx, query) (response, Timing, error)
//
// plus a composable policy layer (WithRetry, WithTimeout, WithHedgingN,
// WithBreaker, WithMetrics, WithCache; Apply composes them from one
// Policy) so retry, deadline, and drop-accounting semantics are
// identical no matter which wire protocol carries the query. The three
// concrete clients are bound in adapters.go; every future backend (DoQ,
// new providers) plugs into the same seam.
package resolver

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
)

// Kind names a transport. It is the unit of per-transport accounting:
// campaign configurations select transports by Kind and report
// retry/drop counters per Kind.
type Kind string

// The supported transports.
const (
	Do53 Kind = "do53" // conventional DNS over UDP with TCP fallback
	DoH  Kind = "doh"  // DNS over HTTPS (RFC 8484)
	DoT  Kind = "dot"  // DNS over TLS (RFC 7858)
	DoQ  Kind = "doq"  // DNS over QUIC (RFC 9250), modeled on netsim
	// Smart is the composite racing strategy (internal/smart): not a
	// wire protocol of its own, but a Kind so campaigns can select it
	// as a strategy column and metrics can account for it uniformly.
	Smart Kind = "smart"
)

// Kinds returns all supported transports (and the smart composite
// strategy) in canonical order.
func Kinds() []Kind { return []Kind{Do53, DoH, DoT, DoQ, Smart} }

// WireKinds returns the concrete wire transports — every Kind that
// maps to a single protocol on the network, excluding the smart
// composite.
func WireKinds() []Kind { return []Kind{Do53, DoH, DoT, DoQ} }

// ParseKind parses a transport name (case-insensitive; "do53", "doh",
// "dot", "doq", or the composite "smart").
func ParseKind(s string) (Kind, error) {
	switch k := Kind(strings.ToLower(strings.TrimSpace(s))); k {
	case Do53, DoH, DoT, DoQ, Smart:
		return k, nil
	default:
		return "", fmt.Errorf("resolver: unknown transport %q (want do53, doh, dot, doq, or smart)", s)
	}
}

// Valid reports whether k names a supported transport.
func (k Kind) Valid() bool {
	_, err := ParseKind(string(k))
	return err == nil
}

// Timing is the unified per-phase breakdown of one resolution: the wire
// clients' own type, so a transport's timing reaches the policy layers
// without a copy. Phases a transport does not have (Do53 has no TLS
// handshake; reused connections pay no setup) are zero.
type Timing = dnsclient.Timing

// Resolver is the transport-agnostic resolution API. Implementations
// must be safe for concurrent use.
//
// ctx is the implementation's only until Resolve returns: the caller
// may reset and reuse it for another call from then on. WithTimeout
// hands each attempt a pooled deadline.Lazy, stopped — cancelling
// whatever was derived from it — and put back when the attempt returns,
// as the serve engine does with each query's.
type Resolver interface {
	// Resolve sends q and returns the response with its per-phase
	// timing. The returned message is nil exactly when err is non-nil.
	Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error)
}

// Func adapts a function to the Resolver interface.
type Func func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error)

// Resolve implements Resolver.
func (f Func) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	return f(ctx, q)
}

// Query builds a query message for (name, typ) with a random ID, the
// shape every transport accepts.
func Query(name dnswire.Name, typ dnswire.Type) *dnswire.Message {
	return dnswire.NewQuery(dnsclient.RandomID(), name, typ)
}

// Metrics aggregates counters across a resolver stack. A single
// Metrics value may be shared by several policy layers; all fields are
// updated atomically.
type Metrics struct {
	// Queries counts Resolve calls entering the stack.
	Queries atomic.Int64
	// Attempts counts transport attempts (>= Queries).
	Attempts atomic.Int64
	// Retries counts backoff retries taken by WithRetry.
	Retries atomic.Int64
	// Hedges counts speculative further attempts fired by WithHedgingN.
	Hedges atomic.Int64
	// Drops counts attempts that failed with a transport error (the
	// paper's §3.5 measurement discards).
	Drops atomic.Int64
	// Failures counts Resolve calls that exhausted the policy stack
	// without an answer.
	Failures atomic.Int64
}

// Snapshot is a point-in-time copy of a Metrics.
type Snapshot struct {
	Queries, Attempts, Retries, Hedges, Drops, Failures int64
}

// Snapshot returns a consistent-enough copy of the counters.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Queries:  m.Queries.Load(),
		Attempts: m.Attempts.Load(),
		Retries:  m.Retries.Load(),
		Hedges:   m.Hedges.Load(),
		Drops:    m.Drops.Load(),
		Failures: m.Failures.Load(),
	}
}
