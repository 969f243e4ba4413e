package dohclient

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deadline"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/dot"
	"repro/internal/recursive"
	"repro/internal/tlsutil"
)

// isTimeout is the shared discipline's test for a network timeout.
var isTimeout = dnsclient.IsTimeout

// rawServer is an HTTP/1.1 server that writes exactly the bytes a test
// tells it to, and counts the connections it accepts.
type rawServer struct {
	ln    net.Listener
	url   string
	dials atomic.Int32
	wg    sync.WaitGroup
}

// newRawServer serves each parsed request with respond, which gets the
// request's number across all connections and the well-formed DNS
// reply to it, writes whatever it likes to w, and reports whether to
// keep the connection open for another request.
func newRawServer(t *testing.T, respond func(w io.Writer, nth int, reply []byte) (keep bool)) *rawServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawServer{ln: ln, url: "http://" + ln.Addr().String() + "/dns-query"}
	var requests atomic.Int32
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.dials.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					reply, err := dnsReplyFor(req)
					if err != nil {
						t.Errorf("raw server: %v", err)
						return
					}
					if !respond(conn, int(requests.Add(1))-1, reply) {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

// dnsReplyFor answers the DNS query a DoH request carries with one A
// record.
func dnsReplyFor(req *http.Request) ([]byte, error) {
	var wire []byte
	var err error
	if req.Method == http.MethodPost {
		wire, err = io.ReadAll(req.Body)
	} else {
		wire, err = base64.RawURLEncoding.DecodeString(req.URL.Query().Get("dns"))
	}
	if err != nil {
		return nil, err
	}
	q, err := dnswire.Unpack(wire)
	if err != nil {
		return nil, err
	}
	m := q.Reply()
	m.Answers = append(m.Answers, dnswire.ResourceRecord{
		Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.5")},
	})
	return m.Pack()
}

const okType = "Content-Type: application/dns-message\r\n"

func withLength(head string, body []byte) string {
	return fmt.Sprintf("%sContent-Length: %d\r\n\r\n%s", head, len(body), body)
}

// TestEngineConformance drives the engine against servers that frame,
// truncate, mislabel and drop their responses in every way the parser
// has a branch for. Each case runs two exchanges on one client and pins
// their outcome, the Reused sequence, the number of dials and the exact
// Stats.
func TestEngineConformance(t *testing.T) {
	type responder = func(w io.Writer, nth int, reply []byte) bool
	write := func(keep bool, format func(reply []byte) string) responder {
		return func(w io.Writer, _ int, reply []byte) bool {
			io.WriteString(w, format(reply))
			return keep
		}
	}
	oversize := make([]byte, maxBody+100)
	for _, tc := range []struct {
		name       string
		respond    responder
		wantOK     [2]bool
		wantReused [2]bool
		wantDials  int32
		wantStats  Stats
	}{
		{
			name: "content-length, keep-alive",
			respond: write(true, func(r []byte) string {
				return withLength("HTTP/1.1 200 OK\r\n"+okType, r)
			}),
			wantOK: [2]bool{true, true}, wantReused: [2]bool{false, true}, wantDials: 1,
			wantStats: Stats{Exchanges: 2, Reused: 1},
		},
		{
			name: "header names in any case, padded values",
			respond: write(true, func(r []byte) string {
				return fmt.Sprintf("HTTP/1.1 200 OK\r\ncontent-TYPE: \t application/dns-message \r\nCONTENT-length:%d\r\nConnection: keep-alive\r\n\r\n%s", len(r), r)
			}),
			wantOK: [2]bool{true, true}, wantReused: [2]bool{false, true}, wantDials: 1,
			wantStats: Stats{Exchanges: 2, Reused: 1},
		},
		{
			name: "chunked, two chunks, extension and trailer",
			respond: write(true, func(r []byte) string {
				return fmt.Sprintf("HTTP/1.1 200 OK\r\n%sTransfer-Encoding: chunked\r\n\r\n%x;note=1\r\n%s\r\n%X\r\n%s\r\n0\r\nX-Trailer: yes\r\n\r\n",
					okType, 5, r[:5], len(r)-5, r[5:])
			}),
			wantOK: [2]bool{true, true}, wantReused: [2]bool{false, true}, wantDials: 1,
			wantStats: Stats{Exchanges: 2, Reused: 1},
		},
		{
			name: "interim 103 before the final response",
			respond: write(true, func(r []byte) string {
				return "HTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n" + withLength("HTTP/1.1 200 OK\r\n"+okType, r)
			}),
			wantOK: [2]bool{true, true}, wantReused: [2]bool{false, true}, wantDials: 1,
			wantStats: Stats{Exchanges: 2, Reused: 1},
		},
		{
			name: "close-delimited",
			respond: write(false, func(r []byte) string {
				return "HTTP/1.1 200 OK\r\n" + okType + "\r\n" + string(r)
			}),
			wantOK: [2]bool{true, true}, wantDials: 2,
			wantStats: Stats{Exchanges: 2},
		},
		{
			name: "Connection: close",
			respond: write(false, func(r []byte) string {
				return withLength("HTTP/1.1 200 OK\r\nConnection: Keep-Alive, Close\r\n"+okType, r)
			}),
			wantOK: [2]bool{true, true}, wantDials: 2,
			wantStats: Stats{Exchanges: 2},
		},
		{
			// The server would keep the connection; the client must not.
			name: "HTTP/1.0",
			respond: write(true, func(r []byte) string {
				return withLength("HTTP/1.0 200 OK\r\n"+okType, r)
			}),
			wantOK: [2]bool{true, true}, wantDials: 2,
			wantStats: Stats{Exchanges: 2},
		},
		{
			name: "bytes left over after the body",
			respond: write(true, func(r []byte) string {
				return withLength("HTTP/1.1 200 OK\r\n"+okType, r) + "HTTP/1.1 200 OK\r\n"
			}),
			wantOK: [2]bool{true, true}, wantDials: 2,
			wantStats: Stats{Exchanges: 2},
		},
		{
			name: "oversize by Content-Length",
			respond: write(true, func([]byte) string {
				return withLength("HTTP/1.1 200 OK\r\n"+okType, oversize)
			}),
			wantDials: 2,
			wantStats: Stats{WireErrors: 2},
		},
		{
			name: "oversize chunked",
			respond: write(true, func([]byte) string {
				half := string(oversize[:len(oversize)/2+1])
				return fmt.Sprintf("HTTP/1.1 200 OK\r\n%sTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n",
					okType, len(half), half, len(half), half)
			}),
			wantDials: 2,
			wantStats: Stats{WireErrors: 2},
		},
		{
			name: "non-200 with a body, keep-alive",
			respond: write(true, func([]byte) string {
				return withLength("HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n", []byte("busy"))
			}),
			wantReused: [2]bool{false, true}, wantDials: 1,
			wantStats: Stats{HTTPErrors: 2},
		},
		{
			name: "wrong content type",
			respond: write(true, func(r []byte) string {
				return withLength("HTTP/1.1 200 OK\r\nContent-Type: application/dns-message; charset=utf-8\r\n", r)
			}),
			wantReused: [2]bool{false, true}, wantDials: 1,
			wantStats: Stats{WireErrors: 2},
		},
		{
			name: "truncated head",
			respond: write(false, func([]byte) string {
				return "HTTP/1.1 200 OK\r\nContent-Le"
			}),
			wantDials: 2,
			wantStats: Stats{HTTPErrors: 2},
		},
		{
			name: "truncated body",
			respond: write(false, func(r []byte) string {
				whole := withLength("HTTP/1.1 200 OK\r\n"+okType, r)
				return whole[:len(whole)-3]
			}),
			wantDials: 2,
			wantStats: Stats{HTTPErrors: 2},
		},
		{
			name: "truncated chunk",
			respond: write(false, func(r []byte) string {
				return fmt.Sprintf("HTTP/1.1 200 OK\r\n%sTransfer-Encoding: chunked\r\n\r\n%x\r\n%s", okType, len(r), r[:4])
			}),
			wantDials: 2,
			wantStats: Stats{HTTPErrors: 2},
		},
		{
			name: "not HTTP",
			respond: write(true, func([]byte) string {
				return "SSH-2.0-OpenSSH_9.6\r\n"
			}),
			wantDials: 2,
			wantStats: Stats{HTTPErrors: 2},
		},
		{
			name: "bare LF line ends",
			respond: write(true, func(r []byte) string {
				return fmt.Sprintf("HTTP/1.1 200 OK\n%sContent-Length: %d\n\n%s", strings.ReplaceAll(okType, "\r", ""), len(r), r)
			}),
			wantDials: 2,
			wantStats: Stats{HTTPErrors: 2},
		},
		{
			name: "Content-Length and chunked together",
			respond: write(true, func(r []byte) string {
				return fmt.Sprintf("HTTP/1.1 200 OK\r\n%sContent-Length: %d\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", okType, len(r), len(r), r)
			}),
			wantDials: 2,
			wantStats: Stats{HTTPErrors: 2},
		},
		{
			name: "conflicting Content-Lengths",
			respond: write(true, func(r []byte) string {
				return fmt.Sprintf("HTTP/1.1 200 OK\r\n%sContent-Length: %d\r\nContent-Length: %d\r\n\r\n%s", okType, len(r), len(r)+1, r)
			}),
			wantDials: 2,
			wantStats: Stats{HTTPErrors: 2},
		},
		{
			name: "folded header line",
			respond: write(true, func(r []byte) string {
				return fmt.Sprintf("HTTP/1.1 200 OK\r\n%sX-Long: a\r\n b\r\nContent-Length: %d\r\n\r\n%s", okType, len(r), r)
			}),
			wantDials: 2,
			wantStats: Stats{HTTPErrors: 2},
		},
		{
			name: "bad chunk size",
			respond: write(true, func(r []byte) string {
				return fmt.Sprintf("HTTP/1.1 200 OK\r\n%sTransfer-Encoding: chunked\r\n\r\n-1\r\n%s\r\n0\r\n\r\n", okType, r)
			}),
			wantDials: 2,
			wantStats: Stats{HTTPErrors: 2},
		},
		{
			name: "header line longer than the read buffer",
			respond: write(true, func(r []byte) string {
				return withLength("HTTP/1.1 200 OK\r\n"+okType+"X-Pad: "+strings.Repeat("p", readBufferSize)+"\r\n", r)
			}),
			wantDials: 2,
			wantStats: Stats{HTTPErrors: 2},
		},
		{
			// The server promises keep-alive, then closes the idle
			// connection (its read timeout): the second exchange finds it
			// dead before any response byte and is retried on a fresh dial.
			name: "idle connection closed between exchanges",
			respond: write(false, func(r []byte) string {
				return withLength("HTTP/1.1 200 OK\r\n"+okType, r)
			}),
			wantOK: [2]bool{true, true}, wantDials: 2,
			wantStats: Stats{Exchanges: 2},
		},
		{
			// ... and retried once only: when the fresh connection answers
			// nothing either, that is the exchange's error.
			name: "dead idle connection, then a dead fresh one",
			respond: func(w io.Writer, nth int, r []byte) bool {
				if nth == 0 {
					io.WriteString(w, withLength("HTTP/1.1 200 OK\r\n"+okType, r))
				}
				return false
			},
			wantOK: [2]bool{true, false}, wantDials: 2,
			wantStats: Stats{Exchanges: 1, HTTPErrors: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newRawServer(t, tc.respond)
			c, err := New(srv.url, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.CloseIdleConnections()
			for i := 0; i < 2; i++ {
				if i == 1 {
					// Let a server-side close reach the pooled connection
					// so the second exchange meets it in a settled state.
					time.Sleep(20 * time.Millisecond)
				}
				resp, timing, err := c.Query(context.Background(), "conf.a.com.", dnswire.TypeA)
				if (err == nil) != tc.wantOK[i] {
					t.Fatalf("exchange %d: err = %v, want ok = %v", i, err, tc.wantOK[i])
				}
				if err == nil && len(resp.Answers) != 1 {
					t.Errorf("exchange %d: answers = %v", i, resp.Answers)
				}
				if timing.Reused != tc.wantReused[i] {
					t.Errorf("exchange %d: Reused = %v, want %v", i, timing.Reused, tc.wantReused[i])
				}
				if !timing.Reused && err == nil && timing.Connect <= 0 {
					t.Errorf("exchange %d: fresh connection reports Connect = %v", i, timing.Connect)
				}
			}
			if got := srv.dials.Load(); got != tc.wantDials {
				t.Errorf("dials = %d, want %d", got, tc.wantDials)
			}
			if got := c.Stats(); got != tc.wantStats {
				t.Errorf("stats = %+v, want %+v", got, tc.wantStats)
			}
		})
	}
}

// TestEngineCancellation: a cancelled or expired context, and the
// client's own Timeout, each abort an exchange the server sits on; the
// connection is not pooled and the next exchange dials fresh.
func TestEngineCancellation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    *Options
		ctx     func() (context.Context, context.CancelFunc)
		wantErr error
	}{
		{name: "cancel", wantErr: context.Canceled, ctx: func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return ctx, cancel
		}},
		{name: "deadline", wantErr: context.DeadlineExceeded, ctx: func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}},
		{name: "Options.Timeout", opts: &Options{Timeout: 50 * time.Millisecond}, ctx: func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}},
		// What resolver.WithTimeout hands the engine: the watcher watches
		// the Lazy's parent and leaves the Lazy unarmed.
		{name: "cancel above a Lazy", wantErr: context.Canceled, ctx: func() (context.Context, context.CancelFunc) {
			parent, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			lazy := new(deadline.Lazy)
			lazy.Reset(parent, time.Now().Add(time.Hour))
			return lazy, func() { lazy.Stop(); cancel() }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			srv := newRawServer(t, func(w io.Writer, nth int, r []byte) bool {
				if nth == 0 {
					<-release // sit on the first request
					return false
				}
				io.WriteString(w, withLength("HTTP/1.1 200 OK\r\n"+okType, r))
				return true
			})
			defer close(release)
			c, err := New(srv.url, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.CloseIdleConnections()
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			_, _, err = c.Query(ctx, "hang.a.com.", dnswire.TypeA)
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Errorf("aborted exchange returned after %v", elapsed)
			}
			if err == nil || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr == nil && !isTimeout(err) {
				t.Errorf("err = %v, want a timeout", err)
			}
			if n := c.e.pool.Idle(); n != 0 {
				t.Errorf("%d idle connection(s) after an aborted exchange", n)
			}
			_, timing, err := c.Query(context.Background(), "next.a.com.", dnswire.TypeA)
			if err != nil {
				t.Fatalf("exchange after the aborted one: %v", err)
			}
			if timing.Reused || srv.dials.Load() != 2 {
				t.Errorf("Reused = %v, dials = %d; want a fresh dial", timing.Reused, srv.dials.Load())
			}
			if got, want := c.Stats(), (Stats{Exchanges: 1, HTTPErrors: 1}); got != want {
				t.Errorf("stats = %+v, want %+v", got, want)
			}
		})
	}
}

// TestEnginePoolBoundUnderConcurrency: goroutines sharing one Client
// never leave more than MaxIdleConnsPerHost connections idle, and the
// ones above the cap are closed, not leaked — the server ends up with
// exactly the pooled connections open.
func TestEnginePoolBoundUnderConcurrency(t *testing.T) {
	const maxIdle, workers, perWorker = 3, 12, 25
	srv, conns := newCountingStack(t, nil)
	c, err := New(srv.URL+dohserver.DefaultPath, &Options{MaxIdleConnsPerHost: maxIdle})
	if err != nil {
		t.Fatal(err)
	}
	idle := c.e.pool.Idle
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := dnswire.NewName(fmt.Sprintf("p%d-%d.a.com.", w, i))
				if _, _, err := c.Query(context.Background(), name, dnswire.TypeA); err != nil {
					t.Errorf("query %s: %v", name, err)
					return
				}
				if n := idle(); n > maxIdle {
					t.Errorf("%d idle connections, cap %d", n, maxIdle)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Exchanges != workers*perWorker || st.HTTPErrors != 0 || st.WireErrors != 0 {
		t.Errorf("stats = %+v", st)
	}
	pooled := idle()
	if pooled == 0 || pooled > maxIdle {
		t.Errorf("%d idle connections after the run, want 1..%d", pooled, maxIdle)
	}
	deadline := time.Now().Add(5 * time.Second)
	for int(conns.open.Load()) != pooled && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := int(conns.open.Load()); got != pooled {
		t.Errorf("server has %d connections open, client pools %d (of %d dialled): connections over the cap leaked", got, pooled, conns.Load())
	}
	c.CloseIdleConnections()
	if n := idle(); n != 0 {
		t.Errorf("%d idle connections after CloseIdleConnections", n)
	}
}

// TestEngineMatchesHTTPClientPath is the differential test of the
// engine against net/http: against one dohserver, over TLS, the engine
// and a plain http.Client GET of the same URL (one transport per
// client, judged by the client's rules) return the same messages, the
// same Reused sequence and fail on the same steps, across connection
// drops and HTTP-level failures.
func TestEngineMatchesHTTPClientPath(t *testing.T) {
	r := recursive.New(nil)
	r.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		m := q.Reply()
		if strings.HasPrefix(string(q.Questions[0].Name), "nx") {
			m.Header.RCode = dnswire.RCodeNXDomain
			return m, nil
		}
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.8")},
		})
		return m, nil
	}))
	mux := dohserver.NewHandler(r).Mux()
	mux.HandleFunc("/teapot", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no", http.StatusTeapot)
	})
	mux.HandleFunc("/text", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "not dns")
	})
	srv := httptest.NewTLSServer(mux)
	defer srv.Close()

	type step struct {
		path string // "" for the DoH endpoint
		name dnswire.Name
		drop bool // CloseIdleConnections first
	}
	script := []step{
		{name: "d1.a.com."}, {name: "d2.a.com."}, {name: "nx.a.com."},
		{name: "d3.a.com.", drop: true}, {name: "d4.a.com."},
		{path: "/teapot", name: "e1.a.com."}, {name: "d5.a.com."},
		{path: "/text", name: "e2.a.com."}, {name: "d6.a.com."},
	}
	type outcome struct {
		wire   string
		failed bool
		reused bool
	}
	// run plays the script through exchange, which keeps one client per
	// path.
	run := func(t *testing.T, exchange func(path string, drop bool, q *dnswire.Message) (*dnswire.Message, bool, error)) []outcome {
		var out []outcome
		for i, s := range script {
			path := s.path
			if path == "" {
				path = dohserver.DefaultPath
			}
			resp, reused, err := exchange(path, s.drop, dnswire.NewQuery(uint16(100+i), s.name, dnswire.TypeA))
			o := outcome{failed: err != nil, reused: reused}
			if err == nil {
				wire, err := resp.Pack()
				if err != nil {
					t.Fatal(err)
				}
				o.wire = string(wire)
			}
			out = append(out, o)
		}
		return out
	}
	t.Run("GET", func(t *testing.T) {
		clients := map[string]*Client{}
		viaEngine := run(t, func(path string, drop bool, q *dnswire.Message) (*dnswire.Message, bool, error) {
			c := clients[path]
			if c == nil {
				var err error
				if c, err = New(srv.URL+path, &Options{InsecureTLS: true}); err != nil {
					t.Fatal(err)
				}
				clients[path] = c
			}
			if drop {
				c.CloseIdleConnections()
			}
			m, timing, err := c.Exchange(context.Background(), q)
			return m, timing.Reused, err
		})
		transports := map[string]*http.Client{}
		viaHTTP := run(t, func(path string, drop bool, q *dnswire.Message) (*dnswire.Message, bool, error) {
			hc := transports[path]
			if hc == nil {
				// One transport per client, as the engine keeps one pool
				// per client.
				tr := srv.Client().Transport.(*http.Transport).Clone()
				tr.ForceAttemptHTTP2 = false
				tr.TLSClientConfig.NextProtos = nil
				hc = &http.Client{Transport: tr}
				transports[path] = hc
			}
			if drop {
				hc.CloseIdleConnections()
			}
			return netHTTPGet(hc, srv.URL+path, q)
		})
		for i := range script {
			if viaEngine[i] != viaHTTP[i] {
				t.Errorf("step %d (%+v): engine {failed:%v reused:%v wire:%x}, net/http {failed:%v reused:%v wire:%x}",
					i, script[i], viaEngine[i].failed, viaEngine[i].reused, viaEngine[i].wire,
					viaHTTP[i].failed, viaHTTP[i].reused, viaHTTP[i].wire)
			}
		}
		var total Stats
		for _, c := range clients {
			st := c.Stats()
			total.Exchanges += st.Exchanges
			total.Reused += st.Reused
			total.HTTPErrors += st.HTTPErrors
			total.WireErrors += st.WireErrors
			c.CloseIdleConnections()
		}
		for _, hc := range transports {
			hc.CloseIdleConnections()
		}
		if want := (Stats{Exchanges: 7, Reused: 5, HTTPErrors: 1, WireErrors: 1}); total != want {
			t.Errorf("stats = %+v, want %+v", total, want)
		}
	})
}

// netHTTPGet is the differential test's reference exchange: a plain
// net/http GET of url with q as its ?dns= value, held to the client's
// rules (200, application/dns-message, the query's ID echoed). It
// reports whether the request went out on a reused connection.
func netHTTPGet(hc *http.Client, url string, q *dnswire.Message) (*dnswire.Message, bool, error) {
	wire, err := q.Pack()
	if err != nil {
		return nil, false, err
	}
	var reused bool
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"?dns="+base64.RawURLEncoding.EncodeToString(wire), nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Accept", wireContentType)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, reused, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return nil, reused, err
	case resp.StatusCode != http.StatusOK:
		return nil, reused, fmt.Errorf("server returned %s", resp.Status)
	case resp.Header.Get("Content-Type") != wireContentType:
		return nil, reused, fmt.Errorf("unexpected content-type %q", resp.Header.Get("Content-Type"))
	}
	m, err := dnswire.Unpack(body)
	if err == nil && m.Header.ID != q.Header.ID {
		err = errors.New("response ID mismatch")
	}
	return m, reused, err
}

// TestEngineTLSDefaults pins the security properties of the default
// path: the certificate is verified against the URL's host unless
// InsecureTLS is set, the handshake offers HTTP/1.1 only, and TLS 1.2
// is the floor.
func TestEngineTLSDefaults(t *testing.T) {
	srv := newTLSStack(t)
	var offered []string
	srv.TLS.GetConfigForClient = func(hello *tls.ClientHelloInfo) (*tls.Config, error) {
		offered = hello.SupportedProtos
		return nil, nil
	}
	c, err := New(srv.URL+dohserver.DefaultPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(context.Background(), "v.a.com.", dnswire.TypeA); err == nil {
		t.Fatal("self-signed certificate accepted without InsecureTLS")
	}
	if st := c.Stats(); st.HTTPErrors != 1 {
		t.Errorf("stats = %+v", st)
	}
	cfg := c.e.tlsConfig
	if cfg.InsecureSkipVerify || cfg.MinVersion != tls.VersionTLS12 || cfg.ServerName != "127.0.0.1" {
		t.Errorf("TLS config = {InsecureSkipVerify:%v MinVersion:%#x ServerName:%q}", cfg.InsecureSkipVerify, cfg.MinVersion, cfg.ServerName)
	}
	if len(offered) != 1 || offered[0] != "http/1.1" {
		t.Errorf("ALPN offered %q, want [http/1.1]", offered)
	}

	c, err = New(srv.URL+dohserver.DefaultPath, &Options{InsecureTLS: true})
	if err != nil {
		t.Fatal(err)
	}
	_, timing, err := c.Query(context.Background(), "i.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("InsecureTLS query: %v", err)
	}
	if timing.Connect <= 0 || timing.TLSHandshake <= 0 || timing.DNSLookup != 0 {
		t.Errorf("timing = %+v: want Connect and TLSHandshake set, no lookup for an IP literal", timing)
	}
	if sum := timing.DNSLookup + timing.Connect + timing.TLSHandshake + timing.RoundTrip; sum != timing.Total {
		t.Errorf("phases sum to %v, Total = %v", sum, timing.Total)
	}
}

// TestEngineResolvesHostNames: a URL with a host name is resolved by
// the engine itself, timed as DNSLookup, and a default port is filled
// in from the scheme.
func TestEngineResolvesHostNames(t *testing.T) {
	srv, _ := newStack(t)
	_, port, _ := net.SplitHostPort(srv.Listener.Addr().String())
	c, err := New("http://localhost:"+port+dohserver.DefaultPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, timing, err := c.Query(context.Background(), "h.a.com.", dnswire.TypeA); err != nil {
		t.Skipf("localhost does not reach the loopback listener here: %v", err)
	} else if timing.DNSLookup <= 0 || timing.Connect <= 0 {
		t.Errorf("timing = %+v, want DNSLookup and Connect set", timing)
	}
	for rawURL, want := range map[string]string{
		"https://doh.example/dns-query":        "doh.example:443",
		"http://doh.example/dns-query":         "doh.example:80",
		"https://[2001:db8::1]/dns-query":      "[2001:db8::1]:443",
		"https://[2001:db8::1]:8443/dns-query": "[2001:db8::1]:8443",
	} {
		ep, err := newEndpoint(rawURL)
		if err != nil {
			t.Fatal(err)
		}
		if ep.addr != want {
			t.Errorf("%s: dial address %q, want %q", rawURL, ep.addr, want)
		}
	}
}

func newTLSStack(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewUnstartedServer(stackHandler().Mux())
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // the rejected-certificate handshakes
	srv.StartTLS()
	t.Cleanup(srv.Close)
	return srv
}

// TestWarmExchangeAllocBudget gates the client side of a warm GET
// exchange over TLS. The peer is a canned-response TLS server whose
// serving loop does not allocate, so the count is the client's:
// packing, the request bytes, crypto/tls record I/O, the in-place head
// parse, UnpackInto, and the handoffs to the connection's watcher that
// make an in-flight exchange cancellable.
func TestWarmExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	q := dnswire.NewQuery(0x4242, "warm.a.com.", dnswire.TypeA)
	m := q.Reply()
	m.Answers = append(m.Answers, dnswire.ResourceRecord{
		Name: "warm.a.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.6")},
	})
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	canned := []byte(withLength("HTTP/1.1 200 OK\r\n"+okType+"Cache-Control: max-age=60\r\n", wire))
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		for {
			// The engine sends a request in one Write, so one record, so
			// one Read.
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			if !bytes.HasSuffix(buf[:n], []byte("\r\n\r\n")) {
				t.Errorf("request did not arrive whole: %q", buf[:n])
				return
			}
			if _, err := conn.Write(canned); err != nil {
				return
			}
		}
	}()

	c, err := New("https://"+ln.Addr().String()+"/dns-query", &Options{InsecureTLS: true})
	if err != nil {
		t.Fatal(err)
	}
	// What a resolver stack hands down: a cancellable context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	warm := false
	exchange := func() {
		resp, timing, err := c.Exchange(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if timing.Reused != warm {
			t.Fatalf("Reused = %v, want %v", timing.Reused, warm)
		}
		dnswire.PutMessage(resp)
	}
	exchange() // dial, handshake, warm the pools
	warm = true
	// Measured: 2, both inside crypto/tls's record reader; the watcher's
	// handoffs allocate nothing (a context.AfterFunc hook per exchange
	// cost 2 more). The gate leaves room for one stray allocation, not
	// for a per-exchange hook.
	const budget = 3
	n := testing.AllocsPerRun(200, exchange)
	t.Logf("warm GET exchange over TLS: %.1f allocs", n)
	if n > budget {
		t.Errorf("warm GET exchange: %.1f allocs, budget %d", n, budget)
	}
	c.CloseIdleConnections()
	<-served
}

// TestDoTWarmExchangeAllocBudget is the same gate for the other client on
// the shared connection path (internal/dnsclient/conn.go): a warm DoT
// exchange against a canned-response TLS server whose loop does not
// allocate. No context hook here, so what is left is crypto/tls's record
// reader.
func TestDoTWarmExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	q := dnswire.NewQuery(0x4242, "warm.a.com.", dnswire.TypeA)
	m := q.Reply()
	m.Answers = append(m.Answers, dnswire.ResourceRecord{
		Name: "warm.a.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.6")},
	})
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	canned := append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		for {
			// The client sends a frame in one Write, so one record, so one
			// Read.
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			if n < 2 || int(buf[0])<<8|int(buf[1]) != n-2 {
				t.Errorf("frame did not arrive whole: %x", buf[:n])
				return
			}
			if _, err := conn.Write(canned); err != nil {
				return
			}
		}
	}()

	c := &dot.Client{Addr: ln.Addr().String(), TLSConfig: tlsutil.InsecureClientConfig()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	warm := false
	exchange := func() {
		resp, timing, err := c.Exchange(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if timing.Reused != warm {
			t.Fatalf("Reused = %v, want %v", timing.Reused, warm)
		}
		dnswire.PutMessage(resp)
	}
	exchange() // dial, handshake, warm the pools
	warm = true
	// Measured: 2, both inside crypto/tls's record reader, before and after
	// dot.Client moved onto the shared path.
	const budget = 3
	n := testing.AllocsPerRun(200, exchange)
	t.Logf("warm DoT exchange: %.1f allocs", n)
	if n > budget {
		t.Errorf("warm DoT exchange: %.1f allocs, budget %d", n, budget)
	}
	c.Close()
	<-served
}

// FuzzResponseHead feeds arbitrary bytes to the response reader — the
// status line, header and chunk parsers, the three body framings — and
// holds it to its own contract and, where both accept the input, to
// net/http's reading of the same bytes.
func FuzzResponseHead(f *testing.F) {
	// The seed corpus — one input per framing, per rejection and per
	// cut-at-the-limit branch — is committed under
	// testdata/fuzz/FuzzResponseHead.
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
	const limit = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), readBufferSize)
		resp, reusable, err := readResponse(br, nil, limit)
		if err != nil {
			if reusable {
				t.Fatal("failed response reported reusable")
			}
			return
		}
		if len(resp.body) > limit {
			t.Fatalf("body of %d bytes, limit %d", len(resp.body), limit)
		}
		if resp.status < 200 || resp.status > 999 {
			t.Fatalf("final status %d", resp.status)
		}
		if (resp.status == statusOK) != (resp.reason == "") {
			t.Fatalf("status %d with reason %q", resp.status, resp.reason)
		}
		if reusable && br.Buffered() != 0 {
			t.Fatal("reusable with bytes left buffered")
		}

		// net/http on the same bytes. It is the more lenient reader (bare
		// LF, folded headers, Content-Length beside chunked), so only its
		// successes are comparable.
		hbr := bufio.NewReader(bytes.NewReader(data))
		var hresp *http.Response
		for {
			if hresp, err = http.ReadResponse(hbr, nil); err != nil {
				return
			}
			if hresp.StatusCode >= 200 {
				break
			}
		}
		if hresp.StatusCode != resp.status {
			t.Fatalf("status %d, net/http reads %d", resp.status, hresp.StatusCode)
		}
		hbody, err := io.ReadAll(io.LimitReader(hresp.Body, limit))
		if err != nil {
			return
		}
		if !bytes.Equal(hbody, resp.body) {
			t.Fatalf("body %q, net/http reads %q", resp.body, hbody)
		}
		if ct := hresp.Header.Get("Content-Type"); ct != resp.contentType && resp.contentType != "" {
			t.Fatalf("content type %q, net/http reads %q", resp.contentType, ct)
		}
		if reusable && hresp.Close {
			t.Fatal("reusable, but net/http would close the connection")
		}
	})
}
