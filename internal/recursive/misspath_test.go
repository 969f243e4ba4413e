package recursive

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
)

// cannedZone answers from messages built ahead of time, stamped with
// the query's ID the way a real upstream echoes it, so what the tests
// below count is the resolver's own cost.
type cannedZone map[dnswire.Name]*dnswire.Message

func (z cannedZone) Resolve(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	m, ok := z[q.Questions[0].Name]
	if !ok {
		return nil, fmt.Errorf("no canned answer for %s", q.Questions[0].Name)
	}
	m.Header.ID = q.Header.ID
	return m, nil
}

func cannedNames(n int) ([]dnswire.Name, cannedZone) {
	names, zone := make([]dnswire.Name, n), make(cannedZone, n)
	for i := range names {
		names[i] = dnswire.Name(fmt.Sprintf("m%05d.a.com.", i))
		zone[names[i]] = answer(names[i], 3600)
	}
	return names, zone
}

// TestResolveMissAllocBudget: a miss through the resolver — zone
// match, flight, upstream, insert into a full cache, answer — costs the
// cache entry: the flight nobody joined is recycled. It read 6 with the
// flight's channel, the list element, the Labels() split and the
// leader's private copy, then 2 with the flight.
func TestResolveMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	names, zone := cannedNames(2048)
	r := New(cache.New(cache.Config{MaxEntries: 256}))
	r.AddZone("a.com.", zone)
	r.AddZone("other.example.", UpstreamFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		return nil, ErrNoUpstream
	}))
	ctx := context.Background()
	q := dnswire.NewQuery(1, names[0], dnswire.TypeA)
	i := 0
	resolve := func() {
		q.Header.ID++
		q.Questions[0].Name = names[i%len(names)]
		i++
		resp, err := r.Resolve(ctx, q)
		if err != nil || resp.Header.ID != q.Header.ID || len(resp.Answers) != 1 {
			t.Fatalf("Resolve = %v, %v", resp, err)
		}
	}
	for range names[:512] { // fill the cache: the measured inserts all evict
		resolve()
	}
	const budget = 1
	n := testing.AllocsPerRun(1000, resolve)
	t.Logf("recursive miss over a canned upstream: %.1f allocs", n)
	if n > budget {
		t.Errorf("recursive miss: %.1f allocs, budget %d", n, budget)
	}
	st := r.Cache().Stats()
	if st.Hits != 0 || st.Evictions == 0 {
		t.Errorf("measured path was not the evicting miss path: %+v", st)
	}
}

// TestResolveHitAllocBudget: through Resolve a hit is one private copy
// to stamp, whether the entry is young (the stored message, copied once)
// or old enough to have its TTLs aged (copied once while ageing);
// through ResolveInto with a dst the caller reuses it is none.
func TestResolveHitAllocBudget(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	r := New(cache.New(cache.Config{MaxEntries: 64, Clock: func() time.Time { return now }}))
	r.SetDefault(cannedZone{"hit.a.com.": answer("hit.a.com.", 3600)})
	ctx := context.Background()
	q := dnswire.NewQuery(77, "hit.a.com.", dnswire.TypeA)
	if _, err := r.Resolve(ctx, q); err != nil {
		t.Fatal(err)
	}
	var dst dnswire.Message
	for _, age := range []time.Duration{0, time.Minute} {
		now = now.Add(age)
		for _, row := range []struct {
			name    string
			resolve func() (*dnswire.Message, error)
			want    float64
		}{
			{"Resolve", func() (*dnswire.Message, error) { return r.Resolve(ctx, q) }, 1},
			{"ResolveInto", func() (*dnswire.Message, error) { return r.ResolveInto(ctx, q, &dst) }, 0},
		} {
			var resp *dnswire.Message
			n := testing.AllocsPerRun(200, func() { resp, _ = row.resolve() })
			if n != row.want {
				t.Errorf("%s hit on an entry aged %v: %.1f allocs, want %.0f", row.name, age, n, row.want)
			}
			if resp.Header.ID != 77 || !resp.Header.RecursionAvailable || resp.Answers[0].TTL != 3600-uint32(age/time.Second) {
				t.Errorf("%s hit aged %v = %v", row.name, age, resp)
			}
		}
	}
	if r.Cache().Stats().Hits == 0 {
		t.Error("measured queries did not hit the cache")
	}
}

// TestForwardedAnswerIsNotCopiedAgain: the query that went upstream
// gets the upstream's answer as it stands — the ID and RD flag are its
// own already — while a waiter on the same flight with another ID still
// gets a copy carrying its own.
func TestForwardedAnswerIsNotCopiedAgain(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var upstreamAnswer *dnswire.Message
	r := New(nil)
	r.SetDefault(UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		close(entered)
		<-release
		upstreamAnswer = q.Reply()
		upstreamAnswer.Answers = append(upstreamAnswer.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")},
		})
		return upstreamAnswer, nil
	}))
	type result struct {
		resp *dnswire.Message
		err  error
	}
	leader, waiter := make(chan result, 1), make(chan result, 1)
	go func() {
		resp, err := r.Resolve(context.Background(), dnswire.NewQuery(100, "share.a.com.", dnswire.TypeA))
		leader <- result{resp, err}
	}()
	<-entered
	go func() {
		resp, err := r.Resolve(context.Background(), dnswire.NewQuery(200, "share.a.com.", dnswire.TypeA))
		waiter <- result{resp, err}
	}()
	// The waiter is counted once it has joined the flight.
	waitForSharedFlights(t, r, 1)
	close(release)
	l, w := <-leader, <-waiter
	if l.err != nil || w.err != nil {
		t.Fatalf("errors: %v, %v", l.err, w.err)
	}
	if l.resp != upstreamAnswer {
		t.Error("the forwarded query's answer was copied although ID and RD were its own")
	}
	if w.resp == upstreamAnswer || w.resp.Header.ID != 200 || upstreamAnswer.Header.ID != 100 {
		t.Errorf("waiter got ID %d (shared message has %d)", w.resp.Header.ID, upstreamAnswer.Header.ID)
	}
}

// TestZoneRoutingLongestSuffixFirst: routes are matched longest suffix
// first whatever the order they were added in, and re-adding a suffix
// replaces its upstream.
func TestZoneRoutingLongestSuffixFirst(t *testing.T) {
	tag := func(s string) Upstream {
		return UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			m := q.Reply()
			m.Answers = append(m.Answers, dnswire.ResourceRecord{
				Name: q.Questions[0].Name, Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.TXTRecord{Strings: []string{s}},
			})
			return m, nil
		})
	}
	r := New(nil)
	r.SetDefault(tag("default"))
	r.AddZone("com.", tag("com"))
	r.AddZone("deep.A.com.", tag("deep"))
	r.AddZone("a.com.", tag("old a.com"))
	r.AddZone("a.com.", tag("a.com"))
	for name, want := range map[dnswire.Name]string{
		"x.deep.a.com.": "deep",
		"deep.a.com.":   "deep",
		"x.a.com.":      "a.com",
		"b.com.":        "com",
		"example.org.":  "default",
		"notdeep.a.com": "a.com",
	} {
		resp, err := r.Resolve(context.Background(), dnswire.NewQuery(1, name, dnswire.TypeTXT))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := resp.Answers[0].Data.(dnswire.TXTRecord).Strings[0]; got != want {
			t.Errorf("%s routed to %q, want %q", name, got, want)
		}
	}
}
