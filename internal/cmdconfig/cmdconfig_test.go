package cmdconfig

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/dot"
	"repro/internal/obs"
	"repro/internal/recursive"
	"repro/internal/resolver"
	"repro/internal/tlsutil"
)

// authoritative serves a.com on loopback Do53, every name under it a
// wildcard A record, its engine filed in reg (nil: a private registry).
func authoritative(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	zone := authserver.NewZone("a.com.")
	if err := zone.SetSOA("ns1.a.com.", "hostmaster.a.com.", 1); err != nil {
		t.Fatal(err)
	}
	if err := zone.Add(dnswire.ResourceRecord{Name: "*.a.com.", TTL: 60,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("127.0.0.1")}}); err != nil {
		t.Fatal(err)
	}
	srv := authserver.NewServer(zone)
	srv.Registry = reg
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv.Addr()
}

// dotFront serves DoT on loopback, forwarding to the Do53 server at
// upstream, with a self-signed certificate, its engine filed in reg.
func dotFront(t *testing.T, upstream string, reg *obs.Registry) string {
	t.Helper()
	res := recursive.New(nil)
	res.SetDefault(resolver.UpstreamAdapter{R: resolver.NewDo53(upstream, nil)})
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv := dot.NewServer(res, cfg)
	srv.Registry = reg
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv.Addr()
}

func resolve(t *testing.T, r resolver.Resolver, name string) {
	t.Helper()
	resp, _, err := r.Resolve(context.Background(), resolver.Query(dnswire.NewName(name), dnswire.TypeA))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("%s: %d answers, want 1", name, len(resp.Answers))
	}
}

func TestLoneEndpointIsItsPolicyStack(t *testing.T) {
	f := &Forwarder{Timeout: 3 * time.Second, Breaker: 3, PerName: true}
	r, racer, err := f.Build(Endpoint{Kind: resolver.DoH}, Endpoint{Kind: resolver.Do53, Addr: authoritative(t, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if racer != nil {
		t.Fatal("one endpoint built a racer")
	}
	resolve(t, r, "lone.a.com")
}

func TestRacerKeysPerName(t *testing.T) {
	auth := authoritative(t, nil)
	f := &Forwarder{Timeout: 3 * time.Second, Breaker: 3, PerName: true, Insecure: true}
	r, racer, err := f.Build(Endpoint{resolver.Do53, auth}, Endpoint{resolver.DoT, dotFront(t, auth, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if racer == nil {
		t.Fatal("two endpoints built no racer")
	}
	names := []string{"x.a.com", "y.a.com", "x.a.com", "z.a.com", "y.a.com", "x.a.com"}
	for _, name := range names {
		resolve(t, r, name)
	}
	if st := racer.Stats(); st.Destinations != 3 || st.Queries != int64(len(names)) {
		t.Errorf("destinations %d, queries %d; want 3 and %d", st.Destinations, st.Queries, len(names))
	}
}

// TestRacerLaunchesInTheGivenOrder: with a stagger nothing outlasts,
// only the first endpoint given is launched, so it wins the first race.
// Each server's engine counts its queries in the registry it was given.
func TestRacerLaunchesInTheGivenOrder(t *testing.T) {
	authReg, dotReg := obs.NewRegistry(), obs.NewRegistry()
	auth := authoritative(t, authReg)
	dotAddr := dotFront(t, auth, dotReg)
	for _, first := range []resolver.Kind{resolver.Do53, resolver.DoT} {
		eps := []Endpoint{{resolver.Do53, auth}, {resolver.DoT, dotAddr}}
		if first == resolver.DoT {
			eps[0], eps[1] = eps[1], eps[0]
		}
		f := &Forwarder{Timeout: 3 * time.Second, Stagger: time.Hour, Insecure: true}
		r, racer, err := f.Build(eps...)
		if err != nil {
			t.Fatal(err)
		}
		resolve(t, r, "order.a.com")
		racer.Close()
		if wins := racer.WinsByKind(); wins[first] != 1 {
			t.Errorf("%s listed first: wins %v", first, wins)
		}
	}
	if p, q := authReg.Counter("serve_packets_total").Value(), dotReg.Counter("serve_stream_queries_total").Value(); p == 0 || q == 0 {
		t.Errorf("serve_packets_total %d on the authoritative server, serve_stream_queries_total %d on the DoT front; want both > 0", p, q)
	}
}

// deadTLS accepts connections and closes them at once, counting them:
// every DoT handshake against it fails.
func deadTLS(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			c.Close()
		}
	}()
	return ln.Addr().String(), &accepted
}

// TestDeadEndpointBreakerOpens: a dead DoT endpoint listed first fails
// three races, each of which the live Do53 endpoint answers; then its
// breaker is open and later races never dial it.
func TestDeadEndpointBreakerOpens(t *testing.T) {
	dead, dials := deadTLS(t)
	f := &Forwarder{Timeout: 3 * time.Second, Breaker: 3, PerName: true, Stagger: time.Hour, Insecure: true}
	r, racer, err := f.Build(Endpoint{resolver.DoT, dead}, Endpoint{resolver.Do53, authoritative(t, nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		resolve(t, r, fmt.Sprintf("q%d.a.com", i))
	}
	if n := dials.Load(); n != 3 {
		t.Errorf("dead endpoint dialled %d times, want 3 (breaker open after 3 failures)", n)
	}
	racer.Close()
	if st := racer.Stats(); st.RaceFailures != 0 || st.WinsByCandidate[1] != 8 {
		t.Errorf("race failures %d, Do53 wins %d; want 0 and 8", st.RaceFailures, st.WinsByCandidate[1])
	}
}

// captureStdout returns what fn prints on standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// draining tells the test when the lifecycle starts its drain.
type draining struct {
	*recursive.Server
	started chan struct{}
}

func (d draining) Shutdown(ctx context.Context) error {
	close(d.started)
	return d.Server.Shutdown(ctx)
}

// TestRunReportsAfterTheDrain: a query still waiting on its upstream
// when the lifecycle is cancelled is answered during the drain, and the
// report counts it, its cache entry included.
func TestRunReportsAfterTheDrain(t *testing.T) {
	auth := resolver.NewDo53(authoritative(t, nil), nil)
	asked, release := make(chan struct{}), make(chan struct{})
	answers := (&Cache{}).New(obs.NewRegistry())
	res := recursive.New(answers)
	res.SetDefault(resolver.UpstreamAdapter{R: resolver.Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, resolver.Timing, error) {
		close(asked)
		<-release
		return auth.Resolve(ctx, q)
	})})
	srv := draining{recursive.NewServer(res), make(chan struct{})}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		_, _, err := (&dnsclient.Client{Timeout: 5 * time.Second}).Query(context.Background(), srv.Addr(), "late.a.com.", dnswire.TypeA)
		answered <- err
	}()
	<-asked
	ctx, cancel := context.WithCancel(context.Background())
	serving := &Serving{Drain: 5 * time.Second}
	var err error
	out := captureStdout(t, func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			err = serving.Run(ctx, Report{Prefix: "test:", Cache: answers}, srv)
		}()
		cancel()
		<-srv.started
		close(release)
		<-done
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := <-answered; err != nil {
		t.Fatalf("query in flight at cancellation: %v", err)
	}
	want := "test: shutting down\ntest: cache: 0 hits (0 negative, 0 stale) / 1 misses, 0 evictions, 1 entries\n"
	if out != want {
		t.Errorf("report:\n%s\nwant:\n%s", out, want)
	}
}

// get returns the status and body of a GET of url.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestPprofOnlyOnTheDebugListener: the profiles net/http/pprof files in
// http.DefaultServeMux are not on a DoH listener; the debug listener
// serves them beside /metrics and /debug/invariants, a broken identity
// as a 500; and without -debug it opens no socket.
func TestPprofOnlyOnTheDebugListener(t *testing.T) {
	doh := dohserver.NewServer(dohserver.NewHandler(recursive.New(nil)).Mux(), nil)
	if err := doh.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer doh.Shutdown(context.Background())
	reg := obs.NewRegistry()
	var dbg *dohserver.Server
	out := captureStdout(t, func() {
		var err error
		if dbg, err = Debug("test:", "127.0.0.1:0", reg); err != nil {
			t.Fatal(err)
		}
	})
	defer dbg.Shutdown(context.Background())
	if want := "test: debug on http://" + dbg.Addr() + "/\n"; out != want {
		t.Errorf("announced %q, want %q", out, want)
	}
	if status, _ := get(t, "http://"+doh.Addr()+"/debug/pprof/"); status != http.StatusNotFound {
		t.Errorf("/debug/pprof/ on the DoH listener: %d, want 404", status)
	}
	if status, body := get(t, "http://"+dbg.Addr()+"/debug/pprof/"); status != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ on the debug listener: %d %q", status, body)
	}
	want := "ok serve_queries inflight=0\nok smart_queries inflight=0\nok smart_races inflight=0\n"
	if status, body := get(t, "http://"+dbg.Addr()+"/debug/invariants"); status != http.StatusOK || body != want {
		t.Errorf("/debug/invariants: %d %q, want 200 %q", status, body, want)
	}
	reg.Counter("serve_responses_total").Inc() // a reply to no query
	if status, body := get(t, "http://"+dbg.Addr()+"/metrics"); status != http.StatusOK || body != "counter serve_responses_total 1\n" {
		t.Errorf("/metrics: %d %q", status, body)
	}
	if status, body := get(t, "http://"+dbg.Addr()+"/debug/invariants"); status != http.StatusInternalServerError ||
		!strings.HasPrefix(body, "broken serve_queries inflight=-1\n") {
		t.Errorf("/debug/invariants after a broken identity: %d %q, want 500", status, body)
	}
	unset, err := Debug("test:", "", reg)
	if err != nil || unset.Addr() != "" {
		t.Errorf("without -debug: listening on %q, err %v", unset.Addr(), err)
	}
}

// stuck is a server whose drain never finishes.
type stuck struct{}

func (stuck) Shutdown(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

func TestRunReturnsAForcedDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var err error
	out := captureStdout(t, func() {
		err = (&Serving{Drain: time.Millisecond}).Run(ctx, Report{Prefix: "test:"}, stuck{}, draining{recursive.NewServer(nil), make(chan struct{})})
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run = %v, want the drain's deadline", err)
	}
	if !strings.HasPrefix(out, "test: shutting down") {
		t.Errorf("output %q", out)
	}
}
