// Package dohserver implements an RFC 8484 DNS-over-HTTPS server as an
// http.Handler: GET with the base64url ?dns= parameter and POST with
// an application/dns-message body. Each DoH provider point of presence
// in the reproduction fronts a recursive resolver with this handler;
// the same handler also runs over real TLS sockets in the examples and
// cmd/dohsrv.
package dohserver

import (
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/deadline"
	"repro/internal/dnswire"
	"repro/internal/recursive"
	"repro/internal/serve"
)

// ContentType is the RFC 8484 media type for DNS messages.
const ContentType = "application/dns-message"

// DefaultPath is the conventional DoH endpoint path.
const DefaultPath = "/dns-query"

// maxRequestSize bounds POST bodies and decoded GET payloads.
const maxRequestSize = 64 * 1024

// Handler serves RFC 8484 DoH requests by delegating to a resolver.
type Handler struct {
	// Resolver answers the decoded DNS queries.
	Resolver *recursive.Resolver
	// MaxAge caps the Cache-Control max-age; 0 uses the answer TTL.
	MaxAge time.Duration
	// KeepECS disables the default privacy scrub of EDNS Client
	// Subnet options from incoming queries. The paper's ethics
	// appendix commits to never inspecting ECS client addresses; by
	// default this server removes them before resolution.
	KeepECS bool

	// resolveTimeout bounds one query's resolution, every upstream
	// attempt included; zero means recursive.QueryTimeout, the bound the
	// Do53 and DoT fronts apply. Tests shorten it.
	resolveTimeout time.Duration

	queries  atomic.Int64
	scrubbed atomic.Int64
}

// NewHandler wraps r in a DoH handler.
func NewHandler(r *recursive.Resolver) *Handler { return &Handler{Resolver: r} }

// Queries reports the number of well-formed DoH queries served.
func (h *Handler) Queries() int64 { return h.queries.Load() }

// ScrubbedECS reports how many queries arrived with an ECS option
// that was removed.
func (h *Handler) ScrubbedECS() int64 { return h.scrubbed.Load() }

// request is one DoH query's pooled storage: the serve front's Exchange
// (query, hit answer, name scratch) and the resolve bound, reset per
// query. Like the serve engine's per-worker bound, the resolver may use
// the bound only until it returns.
type request struct {
	serve.Exchange
	bound deadline.Lazy
}

var requests = sync.Pool{New: func() any { return new(request) }}

func (x *request) put() {
	if x.Reusable() {
		requests.Put(x)
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Pooled per-request scratch: the POST body / response wire buffer,
	// and the request (decoded query, hit answer, resolve bound). A
	// response from the resolver's flight is never pooled — its cache
	// retains it.
	scratch := dnswire.GetBuffer()
	defer dnswire.PutBuffer(scratch)
	raw, status, err := extractQuery(r, scratch)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	x := requests.Get().(*request)
	defer x.put()
	q := &x.Query
	if err := x.Decode(raw, h.Resolver); err != nil || len(q.Questions) == 0 {
		http.Error(w, "malformed DNS message", http.StatusBadRequest)
		return
	}
	if q.Header.Response {
		// A response is not a query; the Do53 and DoT fronts drop these,
		// HTTP can say so.
		http.Error(w, "DNS message is a response, not a query", http.StatusBadRequest)
		return
	}
	h.queries.Add(1)
	if !h.KeepECS {
		if stripped, err := dnswire.StripECS(q); err != nil {
			http.Error(w, "malformed EDNS options", http.StatusBadRequest)
			return
		} else if stripped {
			h.scrubbed.Add(1)
		}
	}

	ctx := h.resolveContext(&x.bound, r.Context())
	defer ctx.Stop()
	resp := x.Resolve(ctx, h.Resolver)
	wire, err := resp.AppendPack(scratch.B[:0]) // raw is dead after Decode
	if err != nil {
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	scratch.B = wire
	setHeaders(w.Header(), len(wire), h.maxAge(resp))
	w.WriteHeader(http.StatusOK)
	w.Write(wire)
}

// contentTypeValue is the shared Content-Type header value; header
// maps only ever read it.
var contentTypeValue = []string{ContentType}

// setHeaders sets Content-Type, Content-Length and Cache-Control by
// direct assignment under their canonical keys. The two computed values
// cost two allocations between them: one string holding both texts,
// one array holding both one-element value slices (Header.Set would
// allocate a slice per header on top of each formatted string).
func setHeaders(hdr http.Header, length, maxAge int) {
	var text [48]byte
	b := strconv.AppendInt(text[:0], int64(length), 10)
	n := len(b)
	b = strconv.AppendInt(append(b, "max-age="...), int64(maxAge), 10)
	s := string(b)
	values := [2]string{s[:n], s[n:]}
	hdr["Content-Type"] = contentTypeValue
	hdr["Content-Length"] = values[0:1:1]
	hdr["Cache-Control"] = values[1:2:2]
}

// maxAge is the response's HTTP freshness lifetime in seconds
// (RFC 8484 §5.1): the smallest Answer TTL, or for NXDOMAIN and NODATA
// the RFC 2308 negative TTL — the rule the answer cache itself
// applies — and 0 for anything else (SERVFAIL must not be cached by
// HTTP intermediaries). Capped by MaxAge when set.
func (h *Handler) maxAge(resp *dnswire.Message) int {
	if rc := resp.Header.RCode; rc != dnswire.RCodeNoError && rc != dnswire.RCodeNXDomain {
		return 0
	}
	ttl, _, _ := cache.TTL(resp)
	age := int(ttl)
	if h.MaxAge > 0 && age > int(h.MaxAge/time.Second) {
		age = int(h.MaxAge / time.Second)
	}
	return age
}

// resolveContext resets c as the bound on one resolution under parent,
// the resolve timeout from now, and returns it. A query the cache
// answers pays for no timer (see deadline.Lazy): only an upstream
// exchange that waits on Done, or a wait on another query's flight, arms
// it.
func (h *Handler) resolveContext(c *deadline.Lazy, parent context.Context) *deadline.Lazy {
	d := h.resolveTimeout
	if d <= 0 {
		d = recursive.QueryTimeout
	}
	c.Reset(parent, time.Now().Add(d))
	return c
}

// extractQuery pulls the raw DNS message out of a DoH request,
// returning an HTTP status on failure. POST bodies land in scratch's
// storage; the returned slice is only valid while scratch is held.
func extractQuery(r *http.Request, scratch *dnswire.Buffer) ([]byte, int, error) {
	switch r.Method {
	case http.MethodGet:
		b64 := dnsQueryParam(r.URL.RawQuery)
		if b64 == "" || strings.ContainsAny(b64, "%+") {
			// Either absent on the fast scan or percent-escaped by a
			// sloppy client: take url.Values' decoding slow path.
			b64 = r.URL.Query().Get("dns")
		}
		if b64 == "" {
			return nil, http.StatusBadRequest, fmt.Errorf("missing dns query parameter")
		}
		// Decode inside scratch's storage: copy the base64 text in
		// first, then decode into the region after it. DecodeString
		// would allocate both the source copy and the output per
		// request.
		n := base64.RawURLEncoding.DecodedLen(len(b64))
		if n > maxRequestSize {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("query too large")
		}
		scratch.Grow(len(b64) + n)
		src := append(scratch.B[:0], b64...)
		scratch.B = src
		raw := src[len(b64) : len(b64)+n]
		nw, err := base64.RawURLEncoding.Decode(raw, src)
		if err != nil {
			// Tolerate padded input from sloppy clients.
			raw, err = base64.URLEncoding.DecodeString(b64)
			if err != nil {
				return nil, http.StatusBadRequest, fmt.Errorf("dns parameter is not base64url")
			}
			if len(raw) > maxRequestSize {
				return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("query too large")
			}
			return raw, 0, nil
		}
		return raw[:nw], 0, nil
	case http.MethodPost:
		if ct := r.Header.Get("Content-Type"); ct != ContentType {
			return nil, http.StatusUnsupportedMediaType,
				fmt.Errorf("content-type %q, want %q", ct, ContentType)
		}
		raw, err := dnswire.ReadAllLimit(r.Body, scratch.B[:0], maxRequestSize+1)
		scratch.B = raw[:0]
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("reading body: %v", err)
		}
		if len(raw) > maxRequestSize {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("query too large")
		}
		return raw, 0, nil
	default:
		return nil, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method)
	}
}

// dnsQueryParam extracts the raw (still percent-encoded) value of the
// dns parameter from a query string without building a url.Values map.
func dnsQueryParam(rawQuery string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if v, ok := strings.CutPrefix(pair, "dns="); ok {
			return v
		}
	}
	return ""
}

// Mux returns an http.ServeMux with the wire-format handler mounted
// at DefaultPath and the JSON API at JSONPath, mirroring public
// providers' layouts.
func (h *Handler) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, h)
	mux.HandleFunc(JSONPath, h.ServeJSON)
	return mux
}

// Timeout bounds the read of one request and the write of one response
// on a Server's connections.
const Timeout = 15 * time.Second

// Server runs an http.Handler (usually a Handler's Mux) on net/http with
// the lifecycle of the Do53 and DoT fronts: NewServer, ListenAndServe,
// Addr, then Serve(ctx) or Shutdown(ctx).
type Server struct {
	http *http.Server
	addr string        // "" until ListenAndServe
	done chan struct{} // closed when the accept loop has returned
	err  error         // what it returned; read after done
}

// NewServer serves h over TLS with cfg, which must carry a certificate,
// or over plain HTTP when cfg is nil.
func NewServer(h http.Handler, cfg *tls.Config) *Server {
	return &Server{http: &http.Server{Handler: h, TLSConfig: cfg, ReadTimeout: Timeout, WriteTimeout: Timeout}}
}

// ListenAndServe binds addr and serves until Shutdown. It returns once
// the listener accepts, so Addr is valid and clients may connect.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.addr, s.done = ln.Addr().String(), make(chan struct{})
	go func() {
		defer close(s.done)
		if s.http.TLSConfig != nil {
			s.err = s.http.ServeTLS(ln, "", "")
		} else {
			s.err = s.http.Serve(ln)
		}
	}()
	return nil
}

// Addr returns the bound address, or "" before ListenAndServe.
func (s *Server) Addr() string { return s.addr }

// Serve blocks until ctx is cancelled, then drains gracefully; should
// serving stop by itself first, it returns the cause. Call after
// ListenAndServe.
func (s *Server) Serve(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return s.Shutdown(context.Background())
	case <-s.done:
		if errors.Is(s.err, http.ErrServerClosed) {
			return nil // a Shutdown elsewhere
		}
		return s.err
	}
}

// Shutdown stops accepting at once and lets requests in flight complete;
// if ctx expires first it closes the connections left and returns ctx's
// error. It is idempotent, and a no-op before ListenAndServe.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.done == nil {
		return nil
	}
	err := s.http.Shutdown(ctx)
	if err != nil {
		s.http.Close()
	}
	<-s.done
	return err
}
