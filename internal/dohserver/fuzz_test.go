package dohserver

import (
	"bytes"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/dnswire"
)

// FuzzDoHRequest drives the handler's request parsing with arbitrary
// requests: GET ?dns= (raw, padded or percent-escaped base64url) and
// POST bodies. The seed corpus is in testdata/fuzz/FuzzDoHRequest.
// Whatever arrives, the handler does not panic and answers 200, 400,
// 405, 413 or 415; a 200 answer unpacks and carries the request's ID.
func FuzzDoHRequest(f *testing.F) {
	f.Add(http.MethodPost, "", ContentType, make([]byte, maxRequestSize+1))
	h := NewHandler(testResolver())
	mux := h.Mux()
	f.Fuzz(func(t *testing.T, method, rawQuery, contentType string, body []byte) {
		req := &http.Request{
			Method:     method,
			URL:        &url.URL{Path: DefaultPath, RawQuery: rawQuery},
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{},
			Body:       io.NopCloser(bytes.NewReader(body)),
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusMethodNotAllowed,
			http.StatusRequestEntityTooLarge, http.StatusUnsupportedMediaType:
			return
		default:
			t.Fatalf("%s ?%s: status %d", method, rawQuery, rec.Code)
		}

		// The request's query, decoded the way RFC 8484 defines it.
		raw := body
		if method == http.MethodGet {
			b64 := req.URL.Query().Get("dns")
			var err error
			if raw, err = base64.RawURLEncoding.DecodeString(b64); err != nil {
				if raw, err = base64.URLEncoding.DecodeString(b64); err != nil {
					t.Fatalf("200 for a dns parameter that is not base64url: %q", b64)
				}
			}
		}
		if ct := rec.Header().Get("Content-Type"); ct != ContentType {
			t.Fatalf("200 answer with Content-Type %q", ct)
		}
		m, err := dnswire.Unpack(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("200 answer does not unpack: %v", err)
		}
		if len(raw) < 2 || m.Header.ID != uint16(raw[0])<<8|uint16(raw[1]) {
			t.Fatalf("answer ID %#04x, query %x", m.Header.ID, raw)
		}
	})
}
