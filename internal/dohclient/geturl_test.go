package dohclient

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"net/http"
	"net/url"
	"testing"

	"repro/internal/dnswire"
)

// TestBuildRequestMatchesLegacyEncoding pins the engine's direct-append
// ?dns= request bytes to what the url.Values construction they replaced
// produced.
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
		got, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(appendRequest(nil, c.e.dest, wire))))
		if err != nil {
			t.Fatalf("%s: engine request does not parse: %v", base, err)
		}
		legacy, err := url.Parse(base)
		if err != nil {
			t.Fatal(err)
		}
		// A server-side parse leaves scheme and host out of URL.
		got.URL.Scheme, got.URL.Host = legacy.Scheme, got.Host
		q := legacy.Query()
		q.Set("dns", base64.RawURLEncoding.EncodeToString(wire))
		legacy.RawQuery = q.Encode()
		if legacy.Path == "" {
			legacy.Path = "/"
		}

		if got.Method != http.MethodGet {
			t.Errorf("%s: method %q, want GET", base, got.Method)
		}
		if accept := got.Header.Get("Accept"); accept != "application/dns-message" {
			t.Errorf("%s: Accept = %q", base, accept)
		}
		gu, err := url.Parse(got.URL.String())
		if err != nil {
			t.Fatalf("%s: unparsable URL %q: %v", base, got.URL, err)
		}
		if gu.Path == "" {
			gu.Path = "/"
		}
		if gu.Scheme != legacy.Scheme || gu.Host != legacy.Host || gu.Path != legacy.Path {
			t.Errorf("%s: URL drifted: got %q, legacy %q", base, gu, legacy)
		}
		// Parameter order may differ from url.Values' sorted encoding;
		// the decoded parameter sets must not.
		gq, lq := gu.Query(), legacy.Query()
		if len(gq) != len(lq) {
			t.Errorf("%s: query param count %d, legacy %d", base, len(gq), len(lq))
		}
		for k, v := range lq {
			if len(gq[k]) != len(v) || gq.Get(k) != lq.Get(k) {
				t.Errorf("%s: param %q = %q, legacy %q", base, k, gq[k], v)
			}
		}
		if base == "https://doh.example/dns-query" && gu.String() != legacy.String() {
			// With no preexisting params the two must be byte-identical.
			t.Errorf("got %q, want %q", gu, legacy)
		}
	}
}

// TestRawQueryAllocs is the regression gate for the GET fast path: the
// engine appends the whole request without allocating.
func TestRawQueryAllocs(t *testing.T) {
	c, err := New("https://doh.example/dns-query", nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := dnswire.NewQuery(7, "bench.a.com.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	buf := appendRequest(nil, c.e.dest, wire)
	if n := testing.AllocsPerRun(1000, func() { buf = appendRequest(buf[:0], c.e.dest, wire) }); n != 0 {
		t.Errorf("appendRequest allocates %.1f per op, want 0", n)
	}
}
