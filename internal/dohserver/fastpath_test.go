package dohserver

import (
	"bytes"
	"context"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/deadline"
	"repro/internal/dnswire"
	"repro/internal/recursive"
)

// TestResponseMessageRejected: a DNS message with QR=1 is not a query.
// dot.Server and recursive.Server drop these; over HTTP the answer is
// 400, and the resolver never sees it.
func TestResponseMessageRejected(t *testing.T) {
	resolved := false
	r := recursive.New(nil)
	r.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		resolved = true
		return q.Reply(), nil
	}))
	h := NewHandler(r)
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	wire, err := dnswire.NewQuery(7, "qr.a.com.", dnswire.TypeA).Reply().Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		var resp *http.Response
		if method == http.MethodGet {
			resp, err = http.Get(srv.URL + DefaultPath + "?dns=" + base64.RawURLEncoding.EncodeToString(wire))
		} else {
			resp, err = http.Post(srv.URL+DefaultPath, ContentType, bytes.NewReader(wire))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with QR=1: status = %s, want 400", method, resp.Status)
		}
	}
	if resolved {
		t.Error("a DNS response was handed to the resolver")
	}
}

// TestCacheControlMaxAge pins RFC 8484 §5.1: max-age is the smallest
// Answer TTL, and for an empty Answer the RFC 2308 negative TTL,
// min(SOA TTL, SOA MINIMUM) from the Authority section.
func TestCacheControlMaxAge(t *testing.T) {
	a := func(ttl uint32) dnswire.ResourceRecord {
		return dnswire.ResourceRecord{Name: "m.a.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.9")}}
	}
	soa := func(ttl, minimum uint32) dnswire.ResourceRecord {
		return dnswire.ResourceRecord{Name: "a.com.", Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: ttl,
			Data: dnswire.SOARecord{MName: "ns.a.com.", RName: "root.a.com.", Serial: 1, Minimum: minimum}}
	}
	for _, tc := range []struct {
		name      string
		rcode     dnswire.RCode
		answers   []dnswire.ResourceRecord
		authority []dnswire.ResourceRecord
		want      string
	}{
		{name: "positive", answers: []dnswire.ResourceRecord{a(300)}, want: "max-age=300"},
		{name: "multi-RR min", answers: []dnswire.ResourceRecord{a(300), a(45), a(120)}, want: "max-age=45"},
		{name: "NXDOMAIN, SOA MINIMUM smaller", rcode: dnswire.RCodeNXDomain,
			authority: []dnswire.ResourceRecord{soa(3600, 60)}, want: "max-age=60"},
		{name: "NXDOMAIN, SOA TTL smaller", rcode: dnswire.RCodeNXDomain,
			authority: []dnswire.ResourceRecord{soa(30, 900)}, want: "max-age=30"},
		{name: "NODATA", authority: []dnswire.ResourceRecord{soa(600, 120)}, want: "max-age=120"},
		{name: "NODATA without SOA", want: "max-age=0"},
		{name: "SERVFAIL", rcode: dnswire.RCodeServFail,
			authority: []dnswire.ResourceRecord{soa(600, 120)}, want: "max-age=0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := recursive.New(nil)
			r.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
				m := q.Reply()
				m.Header.RCode = tc.rcode
				m.Answers = append(m.Answers, tc.answers...)
				m.Authorities = append(m.Authorities, tc.authority...)
				return m, nil
			}))
			h := NewHandler(r)
			target := DefaultPath + "?dns=" + base64.RawURLEncoding.EncodeToString(packedQuery(t, "m.a.com."))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d", rec.Code)
			}
			if cc := rec.Header().Get("Cache-Control"); cc != tc.want {
				t.Errorf("Cache-Control = %q, want %q", cc, tc.want)
			}
			if cl, n := rec.Header().Get("Content-Length"), rec.Body.Len(); cl != strconv.Itoa(n) {
				t.Errorf("Content-Length = %q, body is %d bytes", cl, n)
			}
		})
	}
}

// nullWriter is the minimal http.ResponseWriter: the handler's cost
// without net/http's.
type nullWriter struct{ h http.Header }

func (w nullWriter) Header() http.Header         { return w.h }
func (w nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nullWriter) WriteHeader(int)             {}

// TestServeHTTPAllocBudget gates the handler's cache-hit path: the
// resolve bound is pooled and arms no timer, the decode takes the
// cache's spelling of the name, the hit is copied into pooled storage,
// and the header values are shared from setHeaders' tables, so nothing
// is left. It read 4 with a fresh bound and a private copy per hit, 2
// with header values formatted per response.
func TestServeHTTPAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	h := NewHandler(testResolver())
	w := nullWriter{http.Header{}}
	// A response over 100 bytes, so its Content-Length text cannot come
	// from strconv's small-integer table.
	name := dnswire.Name("a-name-long-enough.to-push-the-response.well-past-one-hundred-bytes.a.com.")
	get := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: DefaultPath,
		RawQuery: "dns=" + base64.RawURLEncoding.EncodeToString(packedQuery(t, name))}}
	// As under net/http: a cancellable request context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	get = get.WithContext(ctx)
	h.ServeHTTP(w, get) // fill the cache and warm the pools
	if hits := h.Resolver.Cache().Stats().Hits; hits != 0 {
		t.Fatalf("first query hit the cache")
	}
	const budget = 0
	n := testing.AllocsPerRun(500, func() { h.ServeHTTP(w, get) })
	t.Logf("cache-hit GET through ServeHTTP: %.1f allocs", n)
	if n > budget {
		t.Errorf("cache-hit GET through ServeHTTP: %.1f allocs, budget %d", n, budget)
	}
	if hits := h.Resolver.Cache().Stats().Hits; hits == 0 {
		t.Fatal("measured queries did not hit the cache")
	}
	if cl := w.h.Get("Content-Length"); len(cl) < 3 {
		t.Fatalf("Content-Length = %q: response too small for this test's purpose", cl)
	}
}

// TestResolveBoundFires: the resolve bound no longer costs a timer on
// cache hits, but on a miss whose upstream never answers it must still
// fire and turn into SERVFAIL rather than a hung request.
func TestResolveBoundFires(t *testing.T) {
	r := recursive.New(nil)
	r.SetDefault(recursive.UpstreamFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}))
	h := NewHandler(r)
	h.resolveTimeout = 50 * time.Millisecond
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()

	start := time.Now()
	resp, err := http.Get(srv.URL + DefaultPath + "?dns=" + base64.RawURLEncoding.EncodeToString(packedQuery(t, "hang.a.com.")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("answer took %v with a 50ms resolve bound", elapsed)
	}
	body, _ := io.ReadAll(resp.Body)
	m, err := dnswire.Unpack(body)
	if err != nil {
		t.Fatalf("status %s, body does not decode: %v", resp.Status, err)
	}
	if m.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v, want SERVFAIL", m.Header.RCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "max-age=0" {
		t.Errorf("Cache-Control = %q on SERVFAIL, want max-age=0", cc)
	}
}

// TestLazyTimeoutContract holds the resolve-bound context to what
// context.WithDeadline promises its users.
func TestLazyTimeoutContract(t *testing.T) {
	h := &Handler{resolveTimeout: 30 * time.Millisecond}

	t.Run("deadline reported, nothing armed until asked", func(t *testing.T) {
		ctx := h.resolveContext(new(deadline.Lazy), context.Background())
		defer ctx.Stop()
		if d, ok := ctx.Deadline(); !ok || time.Until(d) > 30*time.Millisecond {
			t.Errorf("Deadline() = %v, %v", d, ok)
		}
		if ctx.Armed() {
			t.Error("timer armed before Done or Err was asked for")
		}
		if err := ctx.Err(); err != nil {
			t.Errorf("Err() = %v before the deadline", err)
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("Done never closed")
		}
		if err := ctx.Err(); err != context.DeadlineExceeded {
			t.Errorf("Err() = %v, want DeadlineExceeded", err)
		}
	})
	t.Run("parent cancellation and earlier parent deadline", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		ctx := h.resolveContext(new(deadline.Lazy), parent)
		defer ctx.Stop()
		cancel()
		<-ctx.Done()
		if err := ctx.Err(); err != context.Canceled {
			t.Errorf("Err() = %v, want Canceled", err)
		}
		early, cancelEarly := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancelEarly()
		ctx2 := h.resolveContext(new(deadline.Lazy), early)
		defer ctx2.Stop()
		want, _ := early.Deadline()
		if d, _ := ctx2.Deadline(); !d.Equal(want) {
			t.Errorf("Deadline() = %v, want the parent's %v", d, want)
		}
	})
	t.Run("derived contexts end with it", func(t *testing.T) {
		ctx := h.resolveContext(new(deadline.Lazy), context.Background())
		defer ctx.Stop()
		before := runtime.NumGoroutine()
		child, cancel := context.WithTimeout(ctx, time.Hour)
		defer cancel()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("deriving a context started %d goroutine(s): package context did not recognise the armed bound", after-before)
		}
		select {
		case <-child.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("child of the resolve bound outlived it")
		}
	})
	t.Run("values come from the parent, armed or not", func(t *testing.T) {
		type key struct{}
		ctx := h.resolveContext(new(deadline.Lazy), context.WithValue(context.Background(), key{}, "v"))
		if got := ctx.Value(key{}); got != "v" {
			t.Errorf("Value before arming = %v", got)
		}
		ctx.Done()
		if got := ctx.Value(key{}); got != "v" {
			t.Errorf("Value after arming = %v", got)
		}
		ctx.Stop()
		if got := ctx.Value(key{}); got != "v" {
			t.Errorf("Value after stop = %v", got)
		}
	})
	t.Run("first use after stop is already cancelled", func(t *testing.T) {
		ctx := h.resolveContext(new(deadline.Lazy), context.Background())
		ctx.Stop()
		select {
		case <-ctx.Done():
		default:
			t.Error("Done open after stop")
		}
		if ctx.Err() == nil {
			t.Error("Err() nil after stop")
		}
	})
}
