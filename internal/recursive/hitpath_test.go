package recursive

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/serve"
)

// TestHitEchoesTheAskersQuestion: a hit answers with the asker's own
// question (RFC 1035 §4.1.2; DNS 0x20 checks it), not the spelling the
// entry was cached under — through Resolve and ResolveInto alike. It
// echoed the first asker's on the parent.
func TestHitEchoesTheAskersQuestion(t *testing.T) {
	r := New(nil)
	r.SetDefault(UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return answer(q.Questions[0].Name, 60), nil
	}))
	ctx := context.Background()
	var dst dnswire.Message
	for i, name := range []dnswire.Name{"WwW.ExAmPlE.CoM.", "www.example.com.", "WWW.EXAMPLE.COM.", "www.example.com."} {
		q := dnswire.NewQuery(uint16(i), name, dnswire.TypeA)
		for _, resolve := range []func() (*dnswire.Message, error){
			func() (*dnswire.Message, error) { return r.Resolve(ctx, q) },
			func() (*dnswire.Message, error) { return r.ResolveInto(ctx, q, &dst) },
		} {
			resp, err := resolve()
			if err != nil {
				t.Fatal(err)
			}
			if got := resp.Questions[0]; got != q.Questions[0] || resp.Header.ID != uint16(i) {
				t.Errorf("asked %s (ID %d), answer carries %v (ID %d)", name, i, got, resp.Header.ID)
			}
		}
	}
	if st := r.Cache().Stats(); st.Misses != 1 || st.Hits != 7 {
		t.Errorf("stats %+v: want the first query the only miss", st)
	}
}

// TestSharedFlightEchoesEachWaitersQuestion: callers that share one
// upstream query each get their own question back, whatever spelling
// the leader forwarded. Both waiters got FLIGHT.a.com. on the parent.
func TestSharedFlightEchoesEachWaitersQuestion(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	r := New(nil)
	r.SetDefault(UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		close(entered)
		<-release
		return answer(q.Questions[0].Name, 60), nil
	}))
	names := []dnswire.Name{"FLIGHT.a.com.", "flight.a.com.", "Flight.A.Com."}
	got := make([]*dnswire.Message, len(names))
	var wg sync.WaitGroup
	resolve := func(i int) {
		defer wg.Done()
		resp, err := r.Resolve(context.Background(), dnswire.NewQuery(uint16(i), names[i], dnswire.TypeA))
		if err != nil {
			t.Errorf("%s: %v", names[i], err)
		}
		got[i] = resp
	}
	wg.Add(len(names))
	go resolve(0)
	<-entered
	for i := 1; i < len(names); i++ {
		go resolve(i)
	}
	waitForSharedFlights(t, r, int64(len(names)-1))
	close(release)
	wg.Wait()
	for i, resp := range got {
		if resp == nil {
			continue
		}
		if resp.Questions[0].Name != names[i] || resp.Header.ID != uint16(i) {
			t.Errorf("asked %s (ID %d), answer carries %s (ID %d)", names[i], i, resp.Questions[0].Name, resp.Header.ID)
		}
	}
	if got[0] != nil && got[1] != nil && &got[0].Questions[0] == &got[1].Questions[0] {
		t.Error("a waiter's question aliases the shared answer's")
	}
}

// TestAnswerHitAllocationFree: serve.Answer over a *recursive.Resolver —
// the Do53 and DoT fronts' whole handler — costs nothing on a hit, on
// the packet limit and the stream limit: the decode takes the cache's
// spelling of the name, the hit is copied into a pooled Exchange, and
// the answer is packed into the engine's buffer. That holds for a fresh,
// an aged and a negative (NXDOMAIN + SOA) entry, and for a stale one
// whose refresh is already under way; a stale hit that launches its
// refresh costs the launch and nothing more.
func TestAnswerHitAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	r := New(cache.New(cache.Config{Clock: clock, StaleTTL: time.Hour, SyncRefresh: true}))
	refreshing := false
	r.SetDefault(UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if refreshing {
			return nil, errors.New("upstream down")
		}
		name := q.Questions[0].Name
		if name == "nx.a.com." {
			m := q.Reply()
			m.Header.RCode = dnswire.RCodeNXDomain
			m.Authorities = append(m.Authorities, dnswire.ResourceRecord{
				Name: "a.com.", Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 3600,
				Data: dnswire.SOARecord{MName: "ns1.a.com.", RName: "h.a.com.", Serial: 1, Minimum: 600},
			})
			return m, nil
		}
		return answer(name, 300), nil
	}))
	ctx := context.Background()
	out := make([]byte, 0, 4096)
	query := func(name dnswire.Name) []byte {
		wire, err := dnswire.NewQuery(0x4242, name, dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	measure := func(raw []byte, limit int) float64 {
		return testing.AllocsPerRun(200, func() {
			wire, _ := serve.Answer(ctx, r, out[:0], raw, limit)
			if len(wire) < 12 || wire[0] != 0x42 || wire[1] != 0x42 {
				t.Fatalf("no answer: %x", wire)
			}
		})
	}
	limits := []int{dnswire.MaxUDPPayload, serve.MaxStreamPayload}
	hit, nx := query("hit.a.com."), query("nx.a.com.")
	serve.Answer(ctx, r, out[:0], hit, limits[0]) // fill the cache
	serve.Answer(ctx, r, out[:0], nx, limits[0])

	for _, step := range []struct {
		name string
		age  time.Duration
	}{{"fresh", 0}, {"aged", time.Minute}} {
		advance(step.age)
		for _, limit := range limits {
			for _, raw := range [][]byte{hit, nx} {
				if n := measure(raw, limit); n != 0 {
					t.Errorf("%s hit on %q, limit %d: %.1f allocs, want 0", step.name, raw[13:], limit, n)
				}
			}
		}
	}

	// Stale: every refresh fails, so the entry keeps serving stale, and
	// one launches per backoff window (a second of the cache's clock).
	refreshing = true
	advance(time.Hour - 2*time.Minute)
	for _, limit := range limits {
		if n := measure(hit, limit); n != 0 {
			t.Errorf("stale hit inside the refresh backoff, limit %d: %.1f allocs, want 0", limit, n)
		}
	}
	launching := func(f func()) float64 {
		return testing.AllocsPerRun(50, func() { advance(2 * time.Second); f() })
	}
	viaAnswer := launching(func() { serve.Answer(ctx, r, out[:0], hit, limits[1]) })
	viaLookup := launching(func() { r.Cache().Lookup("hit.a.com.", dnswire.TypeA) })
	t.Logf("stale hit launching its refresh: %.1f allocs through Answer, %.1f through cache.Lookup", viaAnswer, viaLookup)
	if viaAnswer != viaLookup-1 {
		t.Errorf("a launching stale hit through Answer costs %.1f allocs, want the launch alone (%.1f, Lookup's less its copy)", viaAnswer, viaLookup-1)
	}
	st := r.Cache().Stats()
	if st.StaleHits == 0 || st.RefreshFails == 0 || st.Misses != 2 {
		t.Errorf("measured queries were not the hits they claim: %+v", st)
	}
}
