package dohclient

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptrace"
	"time"

	"repro/internal/dnswire"
)

// httpTransport carries exchanges over a caller-supplied *http.Client
// (Options.HTTPClient): the route to HTTP/2, proxies and custom
// transports, at net/http's per-request cost. Phase timings come from
// httptrace.
type httpTransport struct {
	hc   *http.Client
	dest *endpoint
}

func (t httpTransport) roundTrip(ctx context.Context, req request, body *dnswire.Buffer) (response, error) {
	// All trace callbacks capture the one heap-allocated state struct
	// rather than boxing each timestamp and the Timing individually.
	st := &exchangeTrace{}
	trace := &httptrace.ClientTrace{
		DNSStart: func(httptrace.DNSStartInfo) { st.dnsStart = time.Now() },
		DNSDone: func(httptrace.DNSDoneInfo) {
			if !st.dnsStart.IsZero() {
				st.timing.DNSLookup = time.Since(st.dnsStart)
			}
		},
		ConnectStart: func(string, string) { st.connStart = time.Now() },
		ConnectDone: func(_, _ string, err error) {
			if err == nil && !st.connStart.IsZero() {
				st.timing.Connect = time.Since(st.connStart)
			}
		},
		TLSHandshakeStart: func() { st.tlsStart = time.Now() },
		TLSHandshakeDone: func(tls.ConnectionState, error) {
			if !st.tlsStart.IsZero() {
				st.timing.TLSHandshake = time.Since(st.tlsStart)
			}
		},
		GotConn: func(info httptrace.GotConnInfo) {
			st.timing.Reused = info.Reused
		},
	}
	hresp, err := t.hc.Do(buildRequest(httptrace.WithClientTrace(ctx, trace), t.dest, req))
	resp := response{timing: st.timing}
	if err != nil {
		return resp, err
	}
	// The body is read to its end (or to the size limit, past which the
	// connection is not worth a drain), so Close returns the connection
	// to the transport's idle pool.
	defer hresp.Body.Close()
	resp.status = hresp.StatusCode
	if resp.status != statusOK {
		resp.reason = hresp.Status
	}
	resp.contentType = hresp.Header.Get("Content-Type")
	resp.body, err = dnswire.ReadAllLimit(hresp.Body, body.B[:0], maxBody+1)
	body.B = resp.body
	return resp, err
}

func (t httpTransport) closeIdle() { t.hc.CloseIdleConnections() }

// buildRequest builds the *http.Request to dest by hand: cloning the
// pre-parsed endpoint URL and swapping in the query skips the url.Parse
// that http.NewRequest would re-run on every exchange.
func buildRequest(ctx context.Context, dest *endpoint, req request) *http.Request {
	u := *dest.url
	u.RawQuery = req.query
	hreq := &http.Request{
		Method:     http.MethodGet,
		URL:        &u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"Accept": {wireContentType}},
		Host:       u.Host,
	}
	if req.post {
		hreq.Method = http.MethodPost
		hreq.Header.Set("Content-Type", wireContentType)
		hreq.Body = io.NopCloser(bytes.NewReader(req.dns))
		hreq.ContentLength = int64(len(req.dns))
		hreq.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(req.dns)), nil
		}
	} else {
		u.RawQuery = rawQuery(req.query, req.dns)
	}
	return hreq.WithContext(ctx)
}

// rawQuery builds "[params&]dns=<base64url(wire)>" by appending the
// RawURLEncoding of the wire message directly after the prefix — no
// url.Values map, no parameter sort, no intermediate base64 string.
// One allocation remains: the returned query string.
func rawQuery(prefix string, wire []byte) string {
	scratch := dnswire.GetBuffer()
	scratch.B = base64.RawURLEncoding.AppendEncode(append(scratch.B[:0], prefix...), wire)
	s := string(scratch.B)
	dnswire.PutBuffer(scratch)
	return s
}

// exchangeTrace carries one exchange's httptrace state.
type exchangeTrace struct {
	timing                        Timing
	dnsStart, connStart, tlsStart time.Time
}
