package recursive

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
)

// cannedZone answers from messages built ahead of time. Like a real
// transport it answers in a pooled message of the caller's, stamped with
// the query's ID, which the resolver hands back to the pool; so what the
// tests below count is the resolver's own cost.
type cannedZone map[dnswire.Name]*dnswire.Message

func (z cannedZone) Resolve(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	m, ok := z[q.Questions[0].Name]
	if !ok {
		return nil, fmt.Errorf("no canned answer for %s", q.Questions[0].Name)
	}
	resp := dnswire.GetMessage()
	resp.Header = m.Header
	resp.Header.ID = q.Header.ID
	resp.Questions = append(resp.Questions[:0], m.Questions...)
	resp.Answers = append(resp.Answers[:0], m.Answers...)
	resp.Authorities = append(resp.Authorities[:0], m.Authorities...)
	resp.Additionals = append(resp.Additionals[:0], m.Additionals...)
	return resp, nil
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
// match, flight, upstream, insert into a full cache, answer — costs one
// message through Resolve, the upstream's, which the caller keeps and
// this test never pools, and nothing through ResolveInto into storage
// the caller reuses: the flight nobody joined is recycled, the insert
// takes over the storage of the entry it evicts and the upstream's
// message goes back to the pool. It read 6 with the
// flight's channel, the list element, the Labels() split and the
// leader's private copy, then 2 with the flight, then 1: the entry.
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
	var dst dnswire.Message
	i := 0
	for _, row := range []struct {
		name    string
		resolve func() (*dnswire.Message, error)
		budget  float64
	}{
		{"Resolve", func() (*dnswire.Message, error) { return r.Resolve(ctx, q) }, 1},
		{"ResolveInto", func() (*dnswire.Message, error) { return r.ResolveInto(ctx, q, &dst) }, 0},
	} {
		resolve := func() {
			q.Header.ID++
			q.Questions[0].Name = names[i%len(names)]
			i++
			resp, err := row.resolve()
			if err != nil || resp.Header.ID != q.Header.ID || len(resp.Answers) != 1 || resp.Answers[0].Name != q.Questions[0].Name {
				t.Fatalf("%s = %v, %v", row.name, resp, err)
			}
		}
		for range names[:512] { // fill the cache: the measured inserts all evict
			resolve()
		}
		n := testing.AllocsPerRun(1000, resolve)
		t.Logf("recursive miss over a canned upstream through %s: %.1f allocs", row.name, n)
		if n > row.budget {
			t.Errorf("recursive miss through %s: %.1f allocs, budget %.0f", row.name, n, row.budget)
		}
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

// TestForwardedAnswerIsNotCopiedAgain: the query that went upstream is
// answered in the caller's storage, from one copy of the upstream's
// message, stamped with its own ID, RD bit and question spelling however
// the upstream answered them; the upstream's message goes back to the
// pool. A waiter on the same flight gets its own ID and spelling in its
// own storage. Once the leader's storage is overwritten, the waiter's
// answer and the cached entry are as they were.
func TestForwardedAnswerIsNotCopiedAgain(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var upstreamAnswer *dnswire.Message
	r := New(nil)
	r.SetDefault(UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		close(entered)
		<-release
		upstreamAnswer = q.Reply()
		// An upstream that answers under an ID and spelling of its own.
		upstreamAnswer.Header.ID, upstreamAnswer.Header.RecursionDesired = 0xFFFF, true
		upstreamAnswer.Questions[0].Name = "share.a.com."
		upstreamAnswer.Answers = append(upstreamAnswer.Answers, dnswire.ResourceRecord{
			Name: "share.a.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")},
		})
		return upstreamAnswer, nil
	}))
	ask := func(id uint16, name dnswire.Name) *dnswire.Message {
		q := dnswire.NewQuery(id, name, dnswire.TypeA)
		q.Header.RecursionDesired = false
		return q
	}
	type result struct {
		resp *dnswire.Message
		err  error
	}
	var leaderDst, waiterDst dnswire.Message
	leader, waiter := make(chan result, 1), make(chan result, 1)
	go func() {
		resp, err := r.ResolveInto(context.Background(), ask(100, "Share.A.com."), &leaderDst)
		leader <- result{resp, err}
	}()
	<-entered
	go func() {
		resp, err := r.ResolveInto(context.Background(), ask(200, "SHARE.a.com."), &waiterDst)
		waiter <- result{resp, err}
	}()
	// The waiter is counted once it has joined the flight.
	waitForSharedFlights(t, r, 1)
	close(release)
	l, w := <-leader, <-waiter
	if l.err != nil || w.err != nil {
		t.Fatalf("errors: %v, %v", l.err, w.err)
	}
	for _, row := range []struct {
		who  string
		got  result
		dst  *dnswire.Message
		id   uint16
		name dnswire.Name
	}{{"leader", l, &leaderDst, 100, "Share.A.com."}, {"waiter", w, &waiterDst, 200, "SHARE.a.com."}} {
		h := row.got.resp.Header
		if row.got.resp != row.dst || row.got.resp == upstreamAnswer {
			t.Errorf("%s: answered in %p, want its own storage %p", row.who, row.got.resp, row.dst)
		}
		if h.ID != row.id || h.RecursionDesired || !h.RecursionAvailable || row.dst.Questions[0].Name != row.name {
			t.Errorf("%s: answered ID %d RD=%v RA=%v for %s, want ID %d RD=false RA=true for %s",
				row.who, h.ID, h.RecursionDesired, h.RecursionAvailable, row.dst.Questions[0].Name, row.id, row.name)
		}
		if len(row.dst.Answers) != 1 || row.dst.Answers[0].Data != (dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")}) {
			t.Errorf("%s: answered %v", row.who, row.dst.Answers)
		}
	}
	pack := func(m *dnswire.Message) string {
		b, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	waiterWire, storedWire := pack(&waiterDst), pack(r.Cache().Get("share.a.com.", dnswire.TypeA))
	leaderDst.Header.ID = 0xBAD
	leaderDst.Questions[0].Name = "overwritten.a.com."
	leaderDst.Answers[0].TTL = 1
	leaderDst.Answers[0].Data = dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.1")}
	if pack(&waiterDst) != waiterWire {
		t.Error("overwriting the leader's answer changed the waiter's")
	}
	if pack(r.Cache().Get("share.a.com.", dnswire.TypeA)) != storedWire {
		t.Error("overwriting the leader's answer changed the cached entry")
	}
}

// TestCachedAnswersSurvivePoolChurn: the resolver hands each upstream
// message back to the pool once the cache has its copy, so nothing the
// pool lends out later may reach a cached answer. Concurrent misses, many
// of them joined, over an upstream that answers in pooled messages the way
// the transports do, run beside unrelated GetMessage/UnpackInto churn;
// every entry holds its own answer and packs to the same bytes before and
// after a second round of both. Run it under -race with -count=20.
func TestCachedAnswersSurvivePoolChurn(t *testing.T) {
	const (
		names    = 48
		askers   = 6
		churners = 2
	)
	now := time.Unix(1_700_000_000, 0) // a fixed clock: hits are the entries themselves
	r := New(cache.New(cache.Config{Clock: func() time.Time { return now }}))
	addr := func(name dnswire.Name) netip.Addr {
		var i byte
		for j := 0; j < len(name); j++ {
			i = i*31 + name[j]
		}
		return netip.AddrFrom4([4]byte{10, byte(len(name)), i, name[1]})
	}
	reply := func(q *dnswire.Message, records int) []byte {
		m := q.Reply()
		for i := 0; i < records; i++ {
			m.Answers = append(m.Answers, dnswire.ResourceRecord{
				Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: uint32(300 + i),
				Data: dnswire.ARecord{Addr: addr(q.Questions[0].Name)},
			})
		}
		wire, err := m.Pack()
		if err != nil {
			panic(err)
		}
		return wire
	}
	r.SetDefault(UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		resp := dnswire.GetMessage()
		if err := dnswire.UnpackReplyInto(reply(q, 1), resp, q); err != nil {
			return nil, err
		}
		return resp, nil
	}))
	var junk [][]byte
	for i := 0; i < 8; i++ {
		junk = append(junk, reply(dnswire.NewQuery(uint16(i), dnswire.Name(fmt.Sprintf("junk%d.b.com.", i)), dnswire.TypeA), 1+i%3))
	}
	name := func(round string, i int) dnswire.Name { return dnswire.Name(fmt.Sprintf("%s%02d.a.com.", round, i)) }

	round := func(round string) {
		stop := make(chan struct{})
		var churn, ask sync.WaitGroup
		for g := 0; g < churners; g++ {
			churn.Add(1)
			go func() {
				defer churn.Done()
				for i := g; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					m := dnswire.GetMessage()
					if err := dnswire.UnpackInto(junk[i%len(junk)], m); err != nil {
						t.Error(err)
						return
					}
					dnswire.PutMessage(m)
				}
			}()
		}
		for g := 0; g < askers; g++ {
			ask.Add(1)
			go func() {
				defer ask.Done()
				for i := 0; i < names; i++ {
					n := name(round, (i+g*names/askers)%names)
					resp, err := r.Resolve(context.Background(), dnswire.NewQuery(uint16(g<<8|i), n, dnswire.TypeA))
					if err != nil {
						t.Errorf("%s: %v", n, err)
						continue
					}
					if len(resp.Answers) != 1 || resp.Answers[0].Name != n || resp.Answers[0].Data != (dnswire.ARecord{Addr: addr(n)}) {
						t.Errorf("%s: answered %v", n, resp.Answers)
					}
				}
			}()
		}
		ask.Wait()
		close(stop)
		churn.Wait()
	}
	packed := func() map[dnswire.Name]string {
		entries := make(map[dnswire.Name]string, names)
		for i := 0; i < names; i++ {
			n := name("first", i)
			m := r.Cache().Get(n, dnswire.TypeA)
			if m == nil || len(m.Answers) != 1 || m.Answers[0].Name != n || m.Answers[0].Data != (dnswire.ARecord{Addr: addr(n)}) {
				t.Fatalf("%s: cached %v", n, m)
			}
			wire, err := m.Pack()
			if err != nil {
				t.Fatal(err)
			}
			entries[n] = string(wire)
		}
		return entries
	}

	round("first")
	before := packed()
	round("second")
	after := packed()
	for n, wire := range before {
		if after[n] != wire {
			t.Errorf("%s: the entry changed:\n got %x\nwant %x", n, after[n], wire)
		}
	}
	if st := r.Cache().Stats(); st.Puts < 2*names || st.SharedFlights+st.Hits == 0 {
		t.Errorf("the rounds were not the misses they claim: %+v", st)
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
