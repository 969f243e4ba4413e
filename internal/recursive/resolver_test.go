package recursive

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/resolver"
	"repro/internal/serve"
)

func answer(name dnswire.Name, ttl uint32) *dnswire.Message {
	m := dnswire.NewQuery(1, name, dnswire.TypeA).Reply()
	m.Answers = append(m.Answers, dnswire.ResourceRecord{
		Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.7")},
	})
	return m
}

func TestResolverCachesUpstreamAnswers(t *testing.T) {
	var calls atomic.Int32
	up := UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		calls.Add(1)
		return answer(q.Questions[0].Name, 300), nil
	})
	r := New(nil)
	r.SetDefault(up)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		q := dnswire.NewQuery(uint16(i), "cached.a.com.", dnswire.TypeA)
		resp, err := r.Resolve(ctx, q)
		if err != nil {
			t.Fatalf("Resolve: %v", err)
		}
		if resp.Header.ID != uint16(i) {
			t.Errorf("response ID = %d, want %d (must mirror the query)", resp.Header.ID, i)
		}
		if !resp.Header.RecursionAvailable {
			t.Error("RA not set")
		}
	}
	if calls.Load() != 1 {
		t.Errorf("upstream called %d times, want 1 (rest served from cache)", calls.Load())
	}
}

func TestResolverUniqueNamesBypassCache(t *testing.T) {
	// The paper's methodology: every query uses a fresh UUID label so
	// every resolution is a cache miss.
	var calls atomic.Int32
	up := UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		calls.Add(1)
		return answer(q.Questions[0].Name, 300), nil
	})
	r := New(nil)
	r.SetDefault(up)
	for i := 0; i < 10; i++ {
		name := dnswire.NewName(string(rune('a'+i)) + "-uuid.a.com")
		if _, err := r.Resolve(context.Background(), dnswire.NewQuery(1, name, dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 10 {
		t.Errorf("upstream calls = %d, want 10 (unique names must all miss)", calls.Load())
	}
}

func TestResolverLongestSuffixWins(t *testing.T) {
	mk := func(tag string) Upstream {
		return UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			m := q.Reply()
			m.Answers = append(m.Answers, dnswire.ResourceRecord{
				Name: q.Questions[0].Name, Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 1,
				Data: dnswire.TXTRecord{Strings: []string{tag}},
			})
			return m, nil
		})
	}
	r := New(nil)
	r.SetDefault(mk("default"))
	r.AddZone("com.", mk("com"))
	r.AddZone("a.com.", mk("a.com"))

	cases := []struct {
		name dnswire.Name
		want string
	}{
		{"x.a.com.", "a.com"},
		{"x.b.com.", "com"},
		{"x.org.", "default"},
	}
	for _, tc := range cases {
		resp, err := r.Resolve(context.Background(), dnswire.NewQuery(1, tc.name, dnswire.TypeTXT))
		if err != nil {
			t.Fatalf("Resolve(%s): %v", tc.name, err)
		}
		got := resp.Answers[0].Data.(dnswire.TXTRecord).Strings[0]
		if got != tc.want {
			t.Errorf("Resolve(%s) routed to %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestResolverNoUpstream(t *testing.T) {
	r := New(nil)
	_, err := r.Resolve(context.Background(), dnswire.NewQuery(1, "x.", dnswire.TypeA))
	if err == nil {
		t.Fatal("Resolve succeeded with no upstream")
	}
}

func TestResolverServerOverUDPWithRealAuth(t *testing.T) {
	// Full chain: stub client -> recursive server -> authoritative server.
	zone := authserver.NewZone("a.com.")
	if err := zone.SetSOA("ns1.a.com.", "h.a.com.", 1); err != nil {
		t.Fatal(err)
	}
	if err := zone.Add(dnswire.ResourceRecord{Name: "*.a.com.", TTL: 60,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.80")}}); err != nil {
		t.Fatal(err)
	}
	auth := authserver.NewServer(zone)
	if err := auth.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer auth.Shutdown(context.Background())

	r := New(nil)
	r.AddZone("a.com.", resolver.UpstreamAdapter{R: resolver.NewDo53(auth.Addr(), nil)})
	srv := NewServer(r)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	var c dnsclient.Client
	resp, _, err := c.Query(context.Background(), srv.Addr(), "uuid-1234.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("response = %v", resp)
	}
	if !resp.Header.RecursionAvailable {
		t.Error("RA not set by recursive server")
	}
	if resp.Header.Authoritative {
		t.Error("recursive answer must not be authoritative")
	}

	// Second query for the same name: served from cache, no new
	// queries at the authoritative server.
	before := len(auth.QueryLog())
	if _, _, err := c.Query(context.Background(), srv.Addr(), "uuid-1234.a.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if after := len(auth.QueryLog()); after != before {
		t.Errorf("authoritative saw %d new queries, want 0 (cache hit)", after-before)
	}
}

func TestResolverServFailOnUpstreamError(t *testing.T) {
	r := New(nil)
	r.SetDefault(UpstreamFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		return nil, context.DeadlineExceeded
	}))
	srv := NewServer(r)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	var c dnsclient.Client
	resp, _, err := c.Query(context.Background(), srv.Addr(), "x.fail.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v, want SERVFAIL", resp.Header.RCode)
	}
}

func TestConcurrentMissesCoalesced(t *testing.T) {
	// Many goroutines miss on the same name simultaneously: exactly
	// one upstream query must run.
	var calls atomic.Int32
	release := make(chan struct{})
	up := UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		calls.Add(1)
		<-release
		return answer(q.Questions[0].Name, 60), nil
	})
	r := New(nil)
	r.SetDefault(up)

	const waiters = 32
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	ids := make([]uint16, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := r.Resolve(context.Background(),
				dnswire.NewQuery(uint16(i), "storm.a.com.", dnswire.TypeA))
			errs[i] = err
			if resp != nil {
				ids[i] = resp.Header.ID
			}
		}(i)
	}
	// Release once every caller but the leader has joined its flight.
	waitForSharedFlights(t, r, waiters-1)
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
		if ids[i] != uint16(i) {
			t.Errorf("waiter %d got response ID %d (shared response not re-stamped)", i, ids[i])
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("upstream called %d times for one name under concurrency, want 1", got)
	}
}

func TestCoalescedErrorSharedButNotCached(t *testing.T) {
	var calls atomic.Int32
	up := UpstreamFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		calls.Add(1)
		return nil, context.DeadlineExceeded
	})
	r := New(nil)
	r.SetDefault(up)
	for i := 0; i < 3; i++ {
		if _, err := r.Resolve(context.Background(),
			dnswire.NewQuery(1, "err.a.com.", dnswire.TypeA)); err == nil {
			t.Fatal("expected error")
		}
	}
	// Sequential failures are not cached; each retries upstream.
	if got := calls.Load(); got != 3 {
		t.Errorf("upstream calls = %d, want 3 (errors must not be cached)", got)
	}
}

// TestWaiterContextCancellation: a waiter on another query's flight
// gives up when its own context ends, and the leader's resolution runs
// on. Each step waits on what it needs — the leader upstream, the waiter
// counted on the flight — so the waiter cannot become the leader.
func TestWaiterContextCancellation(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	up := UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		close(entered)
		<-release
		return answer(q.Questions[0].Name, 60), nil
	})
	r := New(nil)
	r.SetDefault(up)

	leader := make(chan error, 1)
	go func() {
		_, err := r.Resolve(context.Background(), dnswire.NewQuery(1, "slow.a.com.", dnswire.TypeA))
		leader <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := r.Resolve(ctx, dnswire.NewQuery(2, "slow.a.com.", dnswire.TypeA))
		waiter <- err
	}()
	waitForSharedFlights(t, r, 1)
	cancel()
	if err := <-waiter; err != context.Canceled {
		t.Fatalf("waiter returned %v, want its context's error", err)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// waitForSharedFlights returns once n callers have joined another's
// flight: the cache counts a waiter as it parks.
func waitForSharedFlights(t *testing.T, r *Resolver, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); r.Cache().Stats().SharedFlights < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("SharedFlights = %d, want %d", r.Cache().Stats().SharedFlights, n)
		}
	}
}

// TestSharedFlightIsCounted: concurrent misses for one name share one
// upstream query on the cache's singleflight, each caller gets an answer
// under its own ID, and every caller but the leader shows up in the
// cache's SharedFlights — the figure behind
// cache_singleflight_shared_total, which read 0 while the resolver kept
// a singleflight of its own.
func TestSharedFlightIsCounted(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	r := New(nil)
	r.SetDefault(UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		calls.Add(1)
		<-release
		return answer(q.Questions[0].Name, 60), nil
	}))

	const callers = 8
	var wg sync.WaitGroup
	ids := make([]uint16, callers)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := r.Resolve(context.Background(), dnswire.NewQuery(uint16(100+i), "shared.a.com.", dnswire.TypeA))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			ids[i] = resp.Header.ID
		}(i)
	}
	// Every caller but the leader has joined once the counter says so.
	waitForSharedFlights(t, r, callers-1)
	close(release)
	wg.Wait()
	for i, id := range ids {
		if id != uint16(100+i) {
			t.Errorf("caller %d got ID %d, want %d", i, id, 100+i)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("upstream called %d times, want 1", got)
	}
	if got := r.Cache().Stats().SharedFlights; got != callers-1 {
		t.Errorf("SharedFlights = %d, want %d", got, callers-1)
	}
}

// TestRecursorAnswersOverTCP: whatever the UDP side truncates, the TCP
// side of the same port answers whole — an answer over
// dnswire.MaxUDPPayload, and a TC=1 slipped by the rate limiter. Before
// the server listened on TCP the client's retry was refused.
func TestRecursorAnswersOverTCP(t *testing.T) {
	const records = 120
	r := New(nil)
	r.SetDefault(UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		m := q.Reply()
		for i := 0; i < records; i++ {
			m.Answers = append(m.Answers, dnswire.ResourceRecord{
				Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.ARecord{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
			})
		}
		return m, nil
	}))
	listen := func(protect serve.Protection) *Server {
		srv := NewServer(r)
		srv.Protect = protect
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
		return srv
	}
	whole := func(r resolver.Resolver, name dnswire.Name) {
		t.Helper()
		resp, _, err := r.Resolve(context.Background(), resolver.Query(name, dnswire.TypeA))
		if err != nil {
			t.Fatalf("Query %s: %v", name, err)
		}
		if resp.Header.Truncated || len(resp.Answers) != records {
			t.Fatalf("%s: TC=%v with %d answers, want all %d", name, resp.Header.Truncated, len(resp.Answers), records)
		}
	}

	whole(resolver.NewDo53(listen(serve.Protection{}).Addr(), nil), "big.a.com.")

	// One token, next to no refill: the first query spends it, the
	// second's first datagram is dropped and its retry slipped TC=1
	// (serve.DefaultRateSlip answers every second over-limit query).
	limited := listen(serve.Protection{RateLimit: 0.001, RateBurst: 1}).Addr()
	retried := resolver.WithRetry(resolver.NewDo53(limited, &dnsclient.Client{Timeout: 250 * time.Millisecond}),
		resolver.RetryPolicy{MaxAttempts: 2})
	whole(retried, "first.a.com.")
	whole(retried, "slipped.a.com.")
}
