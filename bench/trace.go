package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnswire"
	"repro/internal/dot"
	"repro/internal/recursive"
	"repro/internal/resolver"
)

// Seam names. Each is a place where the harness itself hands one layer
// to the next, so a wrapper fits without touching the layers.
const (
	seamClient    = "S0.client"     // around the client call
	seamHTTP      = "S2.http"       // http.Handler around the dohserver mux
	seamDoT       = "S3.dot"        // dot.Handler around the resolver
	seamUpstream  = "S4.upstream"   // recursive.Upstream around the forwarder
	seamTransport = "S5.transport"  // resolver.Func under the policy stack
	seamCandidate = "S6.candidate." // around each smart candidate, + its kind
)

// span is one timed crossing of a seam. Start and End are nanoseconds
// since the tracer's epoch; Seq is the client query in flight when the
// span began; Parent is the narrowest span of the same query that
// contains it ("" for a root).
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Seq    uint64 `json:"seq"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. The traced phase runs one client, so
// at most one query is in flight and every span that opens between a
// client's send and its reply belongs to that query: the server-side
// wrappers read the sequence number the client published. While on is
// false the wrappers pass straight through without reading the clock,
// which is the "wrappers off" side of the tracing-overhead ratio.
type tracer struct {
	epoch time.Time
	seq   atomic.Uint64
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin publishes the next query's sequence number.
func (t *tracer) begin() uint64 { return t.seq.Add(1) }

func (t *tracer) record(name string, seq uint64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Seq: seq, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

func (t *tracer) httpHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		seq, start := t.seq.Load(), time.Now()
		next.ServeHTTP(w, r)
		t.record(seamHTTP, seq, start, time.Now())
	})
}

type tracedHandler struct {
	t    *tracer
	name string
	next dot.Handler
}

func (h tracedHandler) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if !h.t.on.Load() {
		return h.next.Resolve(ctx, q)
	}
	seq, start := h.t.seq.Load(), time.Now()
	resp, err := h.next.Resolve(ctx, q)
	h.t.record(h.name, seq, start, time.Now())
	return resp, err
}

// dot.Handler and recursive.Upstream have the same shape, so one
// wrapper serves both seams.
func (t *tracer) dotHandler(next dot.Handler) dot.Handler {
	return tracedHandler{t, seamDoT, next}
}

func (t *tracer) upstream(next recursive.Upstream) recursive.Upstream {
	return tracedHandler{t, seamUpstream, next}
}

func (t *tracer) resolver(name string, next resolver.Resolver) resolver.Resolver {
	return resolver.Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, resolver.Timing, error) {
		if !t.on.Load() {
			return next.Resolve(ctx, q)
		}
		seq, start := t.seq.Load(), time.Now()
		resp, timing, err := next.Resolve(ctx, q)
		t.record(name, seq, start, time.Now())
		return resp, timing, err
	})
}

// linkParents sets each span's Parent to the narrowest span of the
// same query that contains it, and returns the spans grouped by query.
func linkParents(spans []span) map[uint64][]*span {
	bySeq := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		bySeq[s.Seq] = append(bySeq[s.Seq], s)
	}
	for _, group := range bySeq {
		for _, s := range group {
			var parent *span
			for _, p := range group {
				if p == s || p.Start > s.Start || p.End < s.End || (p.Start == s.Start && p.End == s.End && p.Name >= s.Name) {
					continue
				}
				if parent == nil || p.End-p.Start < parent.End-parent.Start {
					parent = p
				}
			}
			if parent != nil {
				s.Parent = parent.Name
			}
		}
	}
	return bySeq
}

// selfTimes returns, per span name, the total self time and the total
// duration over all queries, after linking parents. A span's self time
// is its duration minus the part of it that its direct children cover;
// overlapping children are counted once.
func selfTimes(spans []span) (self, total map[string]int64) {
	self, total = make(map[string]int64), make(map[string]int64)
	for _, group := range linkParents(spans) {
		for _, s := range group {
			var kids [][2]int64
			for _, c := range group {
				if c != s && c.Parent == s.Name && c.Start >= s.Start && c.End <= s.End {
					kids = append(kids, [2]int64{c.Start, c.End})
				}
			}
			sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
			var covered, edge int64
			edge = s.Start
			for _, k := range kids {
				if k[1] <= edge {
					continue
				}
				if k[0] > edge {
					edge = k[0]
				}
				covered += k[1] - edge
				edge = k[1]
			}
			d := s.End - s.Start
			self[s.Name] += d - covered
			total[s.Name] += d
		}
	}
	return self, total
}

// dump appends the spans to w, one JSON object per line, tagged with
// the workload they came from.
func dumpSpans(w io.Writer, workload string, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			return err
		}
	}
	return nil
}

// clientLayer names the layer whose Timing (seam S1) a path's client
// reports.
var clientLayer = map[string]string{
	wDoHWarm: "dohclient", wDoHCold: "dohclient", wDoHMiss: "dohclient",
	wDoTWarm: "dot", wDo53Miss: "dnsclient",
}

// setTrace turns the recorded spans and the clients' Timing sums into
// the path's per-layer values, as mean microseconds per query, and
// dumps the spans when the spec names a file. Queries that straddle
// the edge of the traced window have server spans but no client span;
// they are dropped. sum covers the queries answered with tracing on.
func (r *segResult) setTrace(spec segSpec, tr *tracer, sum timingSum) error {
	tr.mu.Lock()
	all := tr.spans
	tr.mu.Unlock()
	rooted := make(map[uint64]bool)
	for _, s := range all {
		if s.Name == seamClient {
			rooted[s.Seq] = true
		}
	}
	spans := all[:0:0]
	for _, s := range all {
		if rooted[s.Seq] {
			spans = append(spans, s)
		}
	}
	self, total := selfTimes(spans)
	n := float64(len(rooted))
	if n == 0 {
		r.invalidf("traced segment recorded no client span")
		return nil
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	perOp := func(d time.Duration) float64 { return ratio(float64(d)/1e3, float64(sum.n)) }

	v := r.Values
	exchange := us(total[seamClient])
	v["client.exchange_us"] = exchange
	var covered int64
	for _, ns := range self {
		covered += ns
	}
	v["trace.coverage_ratio"] = ratio(float64(covered), float64(total[seamClient]))

	roundTrip := perOp(sum.roundTrip)
	if layer, ok := clientLayer[spec.Workload]; ok {
		v[layer+".self_us"] = exchange - perOp(sum.total)
		v[layer+".connect_us"] = perOp(sum.connect)
		v[layer+".tls_handshake_us"] = perOp(sum.tls)
		v[layer+".round_trip_us"] = roundTrip
	}
	v["dohserver.handle_us"] = us(total[seamHTTP])
	v["dohserver.self_us"] = us(self[seamHTTP])
	v["nethttp_tls.gap_us"] = roundTrip - us(total[seamHTTP])
	v["recursive.resolve_us"] = us(total[seamDoT])
	v["serve.stream_gap_us"] = roundTrip - us(total[seamDoT])
	v["serve.packet_gap_us"] = roundTrip - us(total[seamUpstream])
	v["recursive.forward_us"] = us(total[seamUpstream])
	v["resolver.policy_self_us"] = us(self[seamUpstream])
	v["upstream.exchange_us"] = us(total[seamTransport])
	v["smart.self_us"] = us(self[seamClient])
	v["smart.candidate_us"] = us(total[seamCandidate+string(resolver.DoT)])

	if spec.TraceOut == "" {
		return nil
	}
	f, err := os.OpenFile(spec.TraceOut, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := dumpSpans(f, spec.Workload, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
