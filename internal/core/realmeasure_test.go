package core

import (
	"context"
	"crypto/tls"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/proxynet"
	"repro/internal/recursive"
	"repro/internal/resolver"
)

// realStack wires the complete paper pipeline over loopback sockets:
// authoritative server (a.com, wildcard -> 127.0.0.1), recursive
// resolver (the exit node's "default resolver"), web server, DoH
// server, and the CONNECT Super Proxy.
type realStack struct {
	auth     *authserver.Server
	rec      *recursive.Server
	web      *httptest.Server
	doh      *httptest.Server
	proxy    *proxynet.RealProxy
	measurer *ProxyMeasurer
}

func newRealStack(t *testing.T) *realStack {
	t.Helper()
	zone := authserver.NewZone("a.com.")
	if err := zone.SetSOA("ns1.a.com.", "hostmaster.a.com.", 1); err != nil {
		t.Fatal(err)
	}
	// Everything under a.com resolves to loopback, like the paper's
	// wildcard pointing at its web server.
	if err := zone.Add(dnswire.ResourceRecord{Name: "*.a.com.", TTL: 60,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("127.0.0.1")}}); err != nil {
		t.Fatal(err)
	}
	if err := zone.Add(dnswire.ResourceRecord{Name: "doh.a.com.", TTL: 60,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("127.0.0.1")}}); err != nil {
		t.Fatal(err)
	}
	auth := authserver.NewServer(zone)
	if err := auth.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auth.Shutdown(context.Background()) })

	res := recursive.New(nil)
	res.AddZone("a.com.", resolver.UpstreamAdapter{R: resolver.NewDo53(auth.Addr(), nil)})
	rec := recursive.NewServer(res)
	if err := rec.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Shutdown(context.Background()) })

	web := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok"))
	}))
	t.Cleanup(web.Close)

	dohRes := recursive.New(nil)
	dohRes.AddZone("a.com.", resolver.UpstreamAdapter{R: resolver.NewDo53(auth.Addr(), nil)})
	doh := httptest.NewTLSServer(dohserver.NewHandler(dohRes).Mux())
	t.Cleanup(doh.Close)

	proxy := &proxynet.RealProxy{ResolverAddr: rec.Addr()}
	if err := proxy.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	return &realStack{
		auth: auth, rec: rec, web: web, doh: doh, proxy: proxy,
		measurer: &ProxyMeasurer{
			ProxyAddr: proxy.Addr(),
			TLSConfig: &tls.Config{InsecureSkipVerify: true},
		},
	}
}

func TestRealPipelineDo53(t *testing.T) {
	s := newRealStack(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	_, portStr, err := net.SplitHostPort(s.web.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	obs, err := s.measurer.MeasureDo53(ctx, "uuid-abc123.a.com.", portStr)
	if err != nil {
		t.Fatalf("MeasureDo53: %v", err)
	}
	do53, err := EstimateDo53(obs)
	if err != nil {
		t.Fatalf("EstimateDo53: %v", err)
	}
	if do53 <= 0 || do53 > 5*time.Second {
		t.Errorf("Do53 = %v", do53)
	}
	// The unique name must have reached the authoritative server
	// exactly once (cache-miss methodology).
	hits := 0
	for _, e := range s.auth.QueryLog() {
		if e.Name.Equal("uuid-abc123.a.com.") {
			hits++
		}
	}
	if hits != 1 {
		t.Errorf("authoritative saw the UUID name %d times, want 1", hits)
	}
}

func TestRealPipelineDo53UniqueNamesBypassCache(t *testing.T) {
	s := newRealStack(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, portStr, _ := net.SplitHostPort(s.web.Listener.Addr().String())

	before := len(s.auth.QueryLog())
	for i := 0; i < 3; i++ {
		name := dnswire.NewName("uuid-" + strings.Repeat(string(rune('a'+i)), 6) + ".a.com")
		if _, err := s.measurer.MeasureDo53(ctx, name, portStr); err != nil {
			t.Fatalf("MeasureDo53 %d: %v", i, err)
		}
	}
	if after := len(s.auth.QueryLog()); after-before != 3 {
		t.Errorf("authoritative saw %d queries for 3 unique names, want 3", after-before)
	}

	// The same name twice: the second is a recursive-cache hit.
	before = len(s.auth.QueryLog())
	for i := 0; i < 2; i++ {
		if _, err := s.measurer.MeasureDo53(ctx, "uuid-repeat.a.com.", portStr); err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
	}
	if after := len(s.auth.QueryLog()); after-before != 1 {
		t.Errorf("authoritative saw %d queries for a repeated name, want 1 (cache)", after-before)
	}
}

func TestRealPipelineDoH(t *testing.T) {
	s := newRealStack(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	u, err := url.Parse(s.doh.URL)
	if err != nil {
		t.Fatal(err)
	}
	dohURL := "https://127.0.0.1:" + u.Port() + "/dns-query"
	obs, msg, err := s.measurer.MeasureDoH(ctx, dohURL, "uuid-doh-1.a.com.")
	if err != nil {
		t.Fatalf("MeasureDoH: %v", err)
	}
	if len(msg.Answers) != 1 {
		t.Fatalf("answers = %v", msg.Answers)
	}
	if a, ok := msg.Answers[0].Data.(dnswire.ARecord); !ok || a.Addr != netip.MustParseAddr("127.0.0.1") {
		t.Errorf("answer = %v", msg.Answers[0])
	}
	// Client-side timestamps must be ordered; headers parsed.
	if !(obs.TA <= obs.TB && obs.TB <= obs.TC && obs.TC < obs.TD) {
		t.Errorf("timestamps: %v %v %v %v", obs.TA, obs.TB, obs.TC, obs.TD)
	}
	if obs.Tun.Connect <= 0 {
		t.Errorf("Connect header = %v, want > 0 (real TCP dial)", obs.Tun.Connect)
	}
	// The DoH server's recursion hit our authoritative server.
	found := false
	for _, e := range s.auth.QueryLog() {
		if e.Name.Equal("uuid-doh-1.a.com.") {
			found = true
		}
	}
	if !found {
		t.Error("authoritative never saw the DoH query name")
	}
}

func TestRealProxyRejectsNonConnect(t *testing.T) {
	s := newRealStack(t)
	resp, err := http.Get("http://" + s.proxy.Addr() + "/")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %s, want 405", resp.Status)
	}
}

func TestRealProxyBadGatewayOnUnresolvableHost(t *testing.T) {
	s := newRealStack(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, _, _, err := proxynet.DialViaProxy(ctx, s.proxy.Addr(), "nxdomain.invalid.example:80")
	if err == nil {
		t.Fatal("CONNECT to unresolvable host succeeded")
	}
}
