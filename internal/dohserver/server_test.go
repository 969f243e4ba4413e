package dohserver

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/netip"
	"testing"

	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/recursive"
	"repro/internal/serve"
)

func testResolver() *recursive.Resolver {
	r := recursive.New(nil)
	r.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		m := q.Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA,
			Class: dnswire.ClassIN, TTL: 42,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.1")},
		})
		return m, nil
	}))
	return r
}

func packedQuery(t *testing.T, name dnswire.Name) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(0x99, name, dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestGETRoundTrip(t *testing.T) {
	h := NewHandler(testResolver())
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()

	wire := packedQuery(t, "u1.a.com.")
	resp, err := http.Get(srv.URL + DefaultPath + "?dns=" + base64.RawURLEncoding.EncodeToString(wire))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("content-type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "max-age=42" {
		t.Errorf("cache-control = %q, want max-age=42", cc)
	}
	body, _ := io.ReadAll(resp.Body)
	m, err := dnswire.Unpack(body)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if m.Header.ID != 0x99 || len(m.Answers) != 1 {
		t.Fatalf("message = %v", m)
	}
	if h.Queries() != 1 {
		t.Errorf("Queries() = %d", h.Queries())
	}
}

func TestGETAcceptsPaddedBase64(t *testing.T) {
	h := NewHandler(testResolver())
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	wire := packedQuery(t, "u2.a.com.")
	resp, err := http.Get(srv.URL + DefaultPath + "?dns=" + base64.URLEncoding.EncodeToString(wire))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s (padded base64 rejected)", resp.Status)
	}
}

func TestPOSTRoundTrip(t *testing.T) {
	h := NewHandler(testResolver())
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	wire := packedQuery(t, "u3.a.com.")
	resp, err := http.Post(srv.URL+DefaultPath, ContentType, bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	if m, err := dnswire.Unpack(body); err != nil || len(m.Answers) != 1 {
		t.Fatalf("body = %v, %v", m, err)
	}
}

func TestPOSTWrongContentType(t *testing.T) {
	h := NewHandler(testResolver())
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	resp, err := http.Post(srv.URL+DefaultPath, "text/plain", bytes.NewReader(packedQuery(t, "x.a.com.")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %s, want 415", resp.Status)
	}
}

func TestGETMissingParam(t *testing.T) {
	h := NewHandler(testResolver())
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + DefaultPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %s, want 400", resp.Status)
	}
}

func TestGETMalformedMessage(t *testing.T) {
	h := NewHandler(testResolver())
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + DefaultPath + "?dns=" + base64.RawURLEncoding.EncodeToString([]byte("nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %s, want 400", resp.Status)
	}
	if h.Queries() != 0 {
		t.Errorf("Queries() = %d, want 0", h.Queries())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := NewHandler(testResolver())
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+DefaultPath, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %s, want 405", resp.Status)
	}
}

func TestServFailOnResolverError(t *testing.T) {
	r := recursive.New(nil)
	r.SetDefault(recursive.UpstreamFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		return nil, context.DeadlineExceeded
	}))
	h := NewHandler(r)
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + DefaultPath + "?dns=" +
		base64.RawURLEncoding.EncodeToString(packedQuery(t, "f.a.com.")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s; SERVFAIL must travel as DNS, not HTTP", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	m, err := dnswire.Unpack(body)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v, want SERVFAIL", m.Header.RCode)
	}
}

func TestECSScrubbedByDefault(t *testing.T) {
	var sawECS, sawQuery bool
	r := recursive.New(nil)
	r.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		sawQuery = true
		if _, ok, _ := dnswire.FindECS(q); ok {
			sawECS = true
		}
		m := q.Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA,
			Class: dnswire.ClassIN, TTL: 5,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.4")},
		})
		return m, nil
	}))
	h := NewHandler(r)
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()

	q := dnswire.NewQuery(3, "ecs.a.com.", dnswire.TypeA)
	ecs, err := (dnswire.ECS{Prefix: netip.MustParsePrefix("198.51.100.0/24")}).Option()
	if err != nil {
		t.Fatal(err)
	}
	q.Additionals = append(q.Additionals, dnswire.ResourceRecord{
		Name: ".", Type: dnswire.TypeOPT,
		Data: dnswire.OPTRecord{UDPSize: 4096}.WithOptions([]dnswire.EDNSOption{ecs}),
	})
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + DefaultPath + "?dns=" + base64.RawURLEncoding.EncodeToString(wire))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if !sawQuery {
		t.Fatal("upstream never queried")
	}
	if sawECS {
		t.Error("ECS reached the upstream despite the default scrub")
	}
	if h.ScrubbedECS() != 1 {
		t.Errorf("ScrubbedECS = %d", h.ScrubbedECS())
	}
}

// TestAnswerScrubsECS: serve.Answer — the recursor's Do53 front and
// every DoT server — scrubs a client's ECS option before the resolver
// forwards the query, at the datagram and at the stream limit, and keeps
// the query's other EDNS options; a query whose EDNS options are
// malformed is refused there (nil: dropped, or the stream closed) and
// answered 400 on DoH, and the upstream never sees it.
func TestAnswerScrubsECS(t *testing.T) {
	const cookie = 10 // RFC 7873's option code
	var forwarded, sawECS, sawCookie int
	r := recursive.New(cache.New(cache.Config{}))
	r.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		forwarded++
		if _, ok, _ := dnswire.FindECS(q); ok {
			sawECS++
		}
		for _, rr := range q.Additionals {
			if opt, ok := rr.Data.(dnswire.OPTRecord); ok {
				opts, _ := opt.Options()
				for _, o := range opts {
					if o.Code == cookie {
						sawCookie++
					}
				}
			}
		}
		return q.Reply(), nil
	}))
	ecs, err := (dnswire.ECS{Prefix: netip.MustParsePrefix("198.51.100.0/24")}).Option()
	if err != nil {
		t.Fatal(err)
	}
	query := func(name dnswire.Name, opt dnswire.OPTRecord) []byte {
		q := dnswire.NewQuery(7, name, dnswire.TypeA)
		q.Additionals = []dnswire.ResourceRecord{{Name: ".", Type: dnswire.TypeOPT, Data: opt}}
		raw, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	withECS := dnswire.OPTRecord{UDPSize: 1232}.WithOptions([]dnswire.EDNSOption{
		ecs, {Code: cookie, Data: []byte("8 bytes!")},
	})
	for i, limit := range []int{dnswire.MaxUDPPayload, serve.MaxStreamPayload} {
		// A name of its own per limit, so that the cache misses and the
		// query is forwarded.
		raw := query(dnswire.Name(fmt.Sprintf("ecs%d.a.com.", i)), withECS)
		if got, err := serve.Answer(context.Background(), r, nil, raw, limit); err != nil || got == nil {
			t.Fatalf("limit %d: Answer = %x, %v", limit, got, err)
		}
		if forwarded != i+1 || sawECS != 0 || sawCookie != i+1 {
			t.Errorf("limit %d: %d forwarded, %d with ECS, %d with the cookie; want %d, 0, %d",
				limit, forwarded, sawECS, sawCookie, i+1, i+1)
		}
	}

	malformed := query("bad-edns.a.com.", dnswire.OPTRecord{UDPSize: 1232, Data: []byte{0, 8, 0}})
	for _, limit := range []int{dnswire.MaxUDPPayload, serve.MaxStreamPayload} {
		if got, err := serve.Answer(context.Background(), r, nil, malformed, limit); got != nil || err != nil {
			t.Errorf("limit %d: malformed EDNS answered %x, %v; want a refusal", limit, got, err)
		}
	}
	rec := httptest.NewRecorder()
	NewHandler(r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		DefaultPath+"?dns="+base64.RawURLEncoding.EncodeToString(malformed), nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("DoH answered malformed EDNS with %d, want 400", rec.Code)
	}
	if forwarded != 2 {
		t.Errorf("%d queries forwarded, want 2: malformed EDNS reached the upstream", forwarded)
	}
}

// TestHTTP2EndToEnd: public DoH providers serve over HTTP/2, and the
// handler does too when the listener negotiates h2 by ALPN. Two GETs on
// one net/http client are answered over HTTP/2.0, the second as a new
// stream on the first one's connection.
func TestHTTP2EndToEnd(t *testing.T) {
	srv := httptest.NewUnstartedServer(NewHandler(testResolver()).Mux())
	srv.EnableHTTP2 = true
	srv.StartTLS()
	defer srv.Close()

	hc := srv.Client()
	for i, name := range []dnswire.Name{"h2.a.com.", "h2b.a.com."} {
		var reused bool
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		})
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			srv.URL+DefaultPath+"?dns="+base64.RawURLEncoding.EncodeToString(packedQuery(t, name)), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatalf("GET over h2: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Proto != "HTTP/2.0" {
			t.Errorf("%s: served over %s, want HTTP/2.0", name, resp.Proto)
		}
		m, err := dnswire.Unpack(body)
		if err != nil {
			t.Fatalf("%s: status %s, body does not unpack: %v", name, resp.Status, err)
		}
		if len(m.Answers) != 1 {
			t.Errorf("%s: answers = %v", name, m.Answers)
		}
		if reused != (i == 1) {
			t.Errorf("%s: reused = %v, want %v", name, reused, i == 1)
		}
	}
}
