package dohclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"net/http"
	"net/url"
	"testing"

	"repro/internal/dnswire"
)

// TestBuildRequestMatchesLegacyEncoding pins both transports'
// direct-append ?dns= request builders — the engine's request bytes and
// the net/http path's *http.Request — to what the url.Values
// construction they replaced produced.
func TestBuildRequestMatchesLegacyEncoding(t *testing.T) {
	wire, err := dnswire.NewQuery(42, "test.a.com.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{
		"https://doh.example/dns-query",
		"https://doh.example:8443/dns-query?profile=low",
		"http://127.0.0.1:8080/q",
		"http://[::1]:8080",
	} {
		c, err := New(base, nil)
		if err != nil {
			t.Fatal(err)
		}
		dest := c.rt.(*engine).dest
		req := request{query: c.query, dns: wire}
		viaEngine, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(appendRequest(nil, dest, req))))
		if err != nil {
			t.Fatalf("%s: engine request does not parse: %v", base, err)
		}
		// A server-side parse leaves scheme and host out of URL.
		viaEngine.URL.Scheme, viaEngine.URL.Host = dest.url.Scheme, viaEngine.Host

		legacy, err := url.Parse(base)
		if err != nil {
			t.Fatal(err)
		}
		q := legacy.Query()
		q.Set("dns", base64.RawURLEncoding.EncodeToString(wire))
		legacy.RawQuery = q.Encode()
		if legacy.Path == "" {
			legacy.Path = "/"
		}

		for name, got := range map[string]*http.Request{
			"engine":   viaEngine,
			"net/http": buildRequest(context.Background(), dest, req),
		} {
			if got.Method != http.MethodGet {
				t.Errorf("%s %s: method %q, want GET", name, base, got.Method)
			}
			if accept := got.Header.Get("Accept"); accept != "application/dns-message" {
				t.Errorf("%s %s: Accept = %q", name, base, accept)
			}
			gu, err := url.Parse(got.URL.String())
			if err != nil {
				t.Fatalf("%s %s: unparsable URL %q: %v", name, base, got.URL, err)
			}
			if gu.Path == "" {
				gu.Path = "/"
			}
			if gu.Scheme != legacy.Scheme || gu.Host != legacy.Host || gu.Path != legacy.Path {
				t.Errorf("%s %s: URL drifted: got %q, legacy %q", name, base, gu, legacy)
			}
			// Parameter order may differ from url.Values' sorted encoding;
			// the decoded parameter sets must not.
			gq, lq := gu.Query(), legacy.Query()
			if len(gq) != len(lq) {
				t.Errorf("%s %s: query param count %d, legacy %d", name, base, len(gq), len(lq))
			}
			for k, v := range lq {
				if len(gq[k]) != len(v) || gq.Get(k) != lq.Get(k) {
					t.Errorf("%s %s: param %q = %q, legacy %q", name, base, k, gq[k], v)
				}
			}
			if base == "https://doh.example/dns-query" && gu.String() != legacy.String() {
				// With no preexisting params the two must be byte-identical.
				t.Errorf("%s: got %q, want %q", name, gu, legacy)
			}
		}
	}
}

// TestRawQueryAllocs is the regression gate for the GET fast path: the
// engine appends the whole request without allocating, and on the
// net/http path only the returned query string itself may allocate.
func TestRawQueryAllocs(t *testing.T) {
	c, err := New("https://doh.example/dns-query", nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := dnswire.NewQuery(7, "bench.a.com.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	dest, req := c.rt.(*engine).dest, request{query: c.query, dns: wire}
	buf := appendRequest(nil, dest, req)
	if n := testing.AllocsPerRun(1000, func() { buf = appendRequest(buf[:0], dest, req) }); n != 0 {
		t.Errorf("appendRequest allocates %.1f per op, want 0", n)
	}
	rawQuery(c.query, wire) // warm the pooled scratch
	if n := testing.AllocsPerRun(1000, func() { _ = rawQuery(c.query, wire) }); n > 1 {
		t.Errorf("rawQuery allocates %.1f per op, want <= 1 (the query string)", n)
	}
}
