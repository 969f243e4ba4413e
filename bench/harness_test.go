package main

import (
	"context"
	"io"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/recursive"
	"repro/internal/stats"
)

// TestQuantilesGoThroughStats: the harness has no percentile code of
// its own; medians and percentiles are internal/stats.Quantile.
func TestQuantilesGoThroughStats(t *testing.T) {
	xs := []float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		want, err := stats.Quantile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%g) = %g, want stats.Quantile's %g", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
	m := summarize("us", []float64{5, 1, 3})
	if m.Value != 3 || m.Min != 1 || m.Max != 5 || m.Unit != "us" {
		t.Errorf("summarize = %+v, want median 3 within [1, 5] us", m)
	}
}

// TestSelfTimeExcludesChildrenCover: a parent's self time excludes
// exactly the part of its interval its direct children cover —
// overlapping children once, grandchildren not at all — and a span
// outside every other span is a root.
func TestSelfTimeExcludesChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "S0", Seq: 1, Start: 0, End: 100},
		{Name: "S1.a", Seq: 1, Start: 10, End: 30},
		{Name: "S1.b", Seq: 1, Start: 20, End: 50}, // overlaps S1.a by 10
		{Name: "S2.kid", Seq: 1, Start: 12, End: 18},
		{Name: "S9.stray", Seq: 1, Start: 90, End: 120}, // leaks out of S0
		{Name: "S0", Seq: 2, Start: 200, End: 260},
		{Name: "S1.a", Seq: 2, Start: 200, End: 260}, // fills its parent; the outer seam sorts first
	}
	self, total := selfTimes(spans)
	for name, want := range map[string][2]int64{
		"S0":       {(100 - 40) + 0, 160},
		"S1.a":     {(20 - 6) + 60, 80},
		"S1.b":     {30, 30},
		"S2.kid":   {6, 6},
		"S9.stray": {30, 30},
	} {
		if self[name] != want[0] || total[name] != want[1] {
			t.Errorf("%s: self %d total %d, want self %d total %d", name, self[name], total[name], want[0], want[1])
		}
	}
	parents := map[string]string{}
	for _, s := range spans[:5] {
		parents[s.Name] = s.Parent
	}
	for name, want := range map[string]string{"S0": "", "S1.a": "S0", "S1.b": "S0", "S2.kid": "S1.a", "S9.stray": ""} {
		if parents[name] != want {
			t.Errorf("parent of %s = %q, want %q", name, parents[name], want)
		}
	}
	if err := dumpSpans(io.Discard, "test", spans); err != nil {
		t.Error(err)
	}
}

// TestVerifyRejectsWrongAnswers: wrong ID, question, RCODE or address
// each count as a failure.
func TestVerifyRejectsWrongAnswers(t *testing.T) {
	name := hotName(7)
	q := dnswire.NewQuery(4242, name, dnswire.TypeA)
	good := func() *dnswire.Message {
		m := cachedAnswer(name)
		m.Header.ID = q.Header.ID
		return m
	}
	if err := verify(q, good()); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for what, mutate := range map[string]func(*dnswire.Message){
		"wrong ID":       func(m *dnswire.Message) { m.Header.ID++ },
		"not a response": func(m *dnswire.Message) { m.Header.Response = false },
		"wrong qname":    func(m *dnswire.Message) { m.Questions[0].Name = hotName(8) },
		"wrong qtype":    func(m *dnswire.Message) { m.Questions[0].Type = dnswire.TypeAAAA },
		"SERVFAIL":       func(m *dnswire.Message) { m.Header.RCode = dnswire.RCodeServFail },
		"wrong address": func(m *dnswire.Message) {
			m.Answers[0].Data = dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.10")}
		},
		"no answer":       func(m *dnswire.Message) { m.Answers = nil },
		"two answers":     func(m *dnswire.Message) { m.Answers = append(m.Answers, m.Answers[0]) },
		"not an A record": func(m *dnswire.Message) { m.Answers[0].Data = dnswire.NSRecord{NS: name} },
	} {
		m := good()
		mutate(m)
		if err := verify(q, m); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	if err := verify(q, nil); err == nil {
		t.Error("nil response: accepted")
	}
}

// TestFailingUpstreamFailsTheRun: a stack whose upstream answers
// SERVFAIL makes every query a failure, and the run incorrect — the
// command then exits non-zero.
func TestFailingUpstreamFailsTheRun(t *testing.T) {
	servfail := recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		m := q.Reply()
		m.Header.RCode = dnswire.RCodeServFail
		return m, nil
	})
	rep, err := run(runConfig{
		Workloads: []string{wDo53Miss}, Seed: 1, Rounds: 1,
		Segment: 50 * time.Millisecond, Warmup: 10 * time.Millisecond, Measure: true,
		segment: runSegment, log: io.Discard,
		stack: stackConfig{CacheEntries: 4096, Upstream: servfail},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Workloads[0]
	if w.Attempted == 0 || w.Failed != w.Attempted {
		t.Errorf("%d of %d failed, want fail ratio 1", w.Failed, w.Attempted)
	}
	if w.Correct || rep.correct() {
		t.Error("run with a failing upstream reported correct")
	}
}

// TestVerdict: -check fails a regression beyond the bound, passes one
// inside it, and answers unresolved when the rounds' own spread or the
// host's shift is wider than the bound — unless every round of the
// candidate beats every round of the baseline.
func TestVerdict(t *testing.T) {
	lowerBetter := metricDef{Name: "p50_us", Unit: "us", Better: lower, Bound: 0.25}
	higherBetter := metricDef{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25}
	count := metricDef{Name: "allocs_per_op", Unit: "count", Better: lower, Bound: 0.03}
	steady := func(v float64) metricValue { return summarize("", []float64{v * 0.99, v, v, v, v * 1.01}) }
	noisy := func(v float64) metricValue { return summarize("", []float64{v * 0.6, v * 0.8, v, v * 1.2, v * 1.4}) }
	for _, c := range []struct {
		name       string
		d          metricDef
		a, b       metricValue
		calibShift float64
		want       string
	}{
		{"slower beyond the bound", lowerBetter, steady(100), steady(130), 0, "FAIL"},
		{"slower inside the bound", lowerBetter, steady(100), steady(120), 0, "pass"},
		{"faster", lowerBetter, steady(100), steady(50), 0, "pass"},
		{"less throughput beyond the bound", higherBetter, steady(1000), steady(700), 0, "FAIL"},
		{"more throughput", higherBetter, steady(1000), steady(1500), 0, "pass"},
		{"baseline rounds disagree", lowerBetter, noisy(100), steady(130), 0, "unresolved"},
		{"candidate rounds disagree", lowerBetter, steady(100), noisy(130), 0, "unresolved"},
		{"noisy, but every round better", lowerBetter, noisy(100), steady(40), 0, "pass"},
		{"the box moved", lowerBetter, steady(100), steady(130), 0.4, "unresolved"},
		{"the box moved, a count did too", count, steady(100), steady(110), 0.4, "FAIL"},
	} {
		if _, got := verdict(c.d, c.a, c.b, c.calibShift); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
