package resolver

import (
	"context"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// This file wires the resolver stack into the observability layer
// (internal/obs): WithMetrics records per-transport, per-phase latency
// histograms and query/error counters for every resolution crossing
// it, and the Publish helpers export the policy stack's retry/hedge
// and fault-injection counters into the same registry.
//
// Metric names follow "resolver_<kind>_<what>"; histogram phases reuse
// the stable Breakdown keys (dns_lookup, connect, tls_handshake,
// round_trip, total) so the registry's view lines up with the paper's
// Figure-2 phase decomposition.

// metricNames builds the full name set for one transport once, at
// wrap time, so the per-resolution path never formats strings.
func metricName(kind Kind, what string) string {
	k := string(kind)
	if k == "" {
		k = "all"
	}
	return "resolver_" + k + "_" + what
}

// WithMetrics wraps next so every resolution records into reg:
//
//	resolver_<kind>_queries_total    resolutions entering
//	resolver_<kind>_errors_total     resolutions that failed
//	resolver_<kind>_attempts_total   transport attempts consumed
//	resolver_<kind>_reused_total     resolutions served on a reused conn
//	resolver_<kind>_<phase>_ms       per-phase latency histograms
//
// All handles are resolved at wrap time; the per-resolution path is
// allocation-free (asserted by TestWithMetricsAllocationFree). Place
// it outermost — above the policy stack — so the histograms see the
// end-to-end Timing including retries and backoff.
func WithMetrics(next Resolver, reg *obs.Registry, kind Kind) Resolver {
	return &metricsRecorder{
		next:     next,
		queries:  reg.Counter(metricName(kind, "queries_total")),
		errors:   reg.Counter(metricName(kind, "errors_total")),
		attempts: reg.Counter(metricName(kind, "attempts_total")),
		reused:   reg.Counter(metricName(kind, "reused_total")),
		dns:      reg.Histogram(metricName(kind, "dns_lookup_ms"), nil),
		connect:  reg.Histogram(metricName(kind, "connect_ms"), nil),
		tls:      reg.Histogram(metricName(kind, "tls_handshake_ms"), nil),
		rt:       reg.Histogram(metricName(kind, "round_trip_ms"), nil),
		total:    reg.Histogram(metricName(kind, "total_ms"), nil),
	}
}

type metricsRecorder struct {
	next                              Resolver
	queries, errors, attempts, reused *obs.Counter
	dns, connect, tls, rt, total      *obs.Histogram
}

func (m *metricsRecorder) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
	m.queries.Inc()
	resp, t, err := m.next.Resolve(ctx, q)
	m.attempts.Add(int64(t.AttemptCount()))
	if err != nil {
		m.errors.Inc()
		return resp, t, err
	}
	if t.Reused {
		m.reused.Inc()
	}
	// Setup phases are recorded only when paid: a reused connection's
	// zero handshake would otherwise drown the histogram in zeros.
	if !t.Reused {
		m.dns.Observe(t.DNSLookup)
		m.connect.Observe(t.Connect)
		m.tls.Observe(t.TLSHandshake)
	}
	m.rt.Observe(t.RoundTrip)
	m.total.Observe(t.Total)
	return resp, t, nil
}

// PublishPolicyMetrics exports a policy Metrics snapshot into reg as
// gauges (resolver_<kind>_retries, _hedges, _drops, _failures,
// _policy_queries, _policy_attempts). Gauges, not counters: the source
// of truth stays the Metrics struct, and re-publishing is idempotent.
// Call it before snapshotting the registry.
func PublishPolicyMetrics(reg *obs.Registry, kind Kind, m *Metrics) {
	if m == nil {
		return
	}
	s := m.Snapshot()
	reg.Gauge(metricName(kind, "policy_queries")).Set(float64(s.Queries))
	reg.Gauge(metricName(kind, "policy_attempts")).Set(float64(s.Attempts))
	reg.Gauge(metricName(kind, "retries")).Set(float64(s.Retries))
	reg.Gauge(metricName(kind, "hedges")).Set(float64(s.Hedges))
	reg.Gauge(metricName(kind, "drops")).Set(float64(s.Drops))
	reg.Gauge(metricName(kind, "failures")).Set(float64(s.Failures))
}
