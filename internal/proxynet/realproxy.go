package proxynet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/obs"
)

// RealProxy is an HTTP CONNECT proxy over real TCP sockets that plays
// the Super Proxy role: it resolves the CONNECT target with the "exit
// node's" DNS configuration, dials it, and reports the two timings in
// the X-Luminati-Tun-Timeline header exactly as the proxy network the
// paper measured through — so the same measurement client runs
// unchanged against the simulator and against real sockets.
type RealProxy struct {
	// ResolverAddr is the DNS server (host:port) the proxy's exit
	// side uses to resolve CONNECT targets — the exit node's
	// "default resolver". Empty disables resolution (targets must be
	// IP literals).
	ResolverAddr string
	// Dialer establishes outbound connections (tests can restrict it
	// to loopback).
	Dialer net.Dialer
	// ProcessingDelay artificially inflates the proxy's internal
	// processing, for exercising the t_BrightData accounting.
	ProcessingDelay time.Duration
	// Obs, when set before ListenAndServe, receives tunnel counters
	// and exit-side timing histograms under superproxy_* names.
	Obs *obs.Registry
	// HandshakeTimeout bounds the whole CONNECT handshake — reading
	// the request, resolving and dialing the target, writing the
	// response — so a stalled or byte-dribbling client cannot pin a
	// connection (and its goroutine) open indefinitely. Zero means 30s.
	HandshakeTimeout time.Duration
	// MaxHeaderBytes caps how much of the CONNECT request the proxy
	// will buffer before giving up with 431; a hostile peer can
	// otherwise stream an unbounded header section into our memory.
	// Zero means 16 KiB.
	MaxHeaderBytes int

	ln     net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	instr  *proxyInstruments
	dns    dnsclient.Client // the exit side's lookups, its sockets reused
}

// proxyInstruments holds the registry handles for a running proxy.
type proxyInstruments struct {
	tunnels, rejects *obs.Counter
	dns, connect     *obs.Histogram
}

func (in *proxyInstruments) reject() {
	if in != nil {
		in.rejects.Inc()
	}
}

func (in *proxyInstruments) tunnel(dns, connect time.Duration) {
	if in != nil {
		in.tunnels.Inc()
		in.dns.Observe(dns)
		in.connect.Observe(connect)
	}
}

// ListenAndServe binds addr ("127.0.0.1:0") and serves until Close.
func (p *RealProxy) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if p.Obs != nil {
		p.instr = &proxyInstruments{
			tunnels: p.Obs.Counter("superproxy_tunnels_total"),
			rejects: p.Obs.Counter("superproxy_rejects_total"),
			dns:     p.Obs.Histogram("superproxy_dns_lookup_ms", nil),
			connect: p.Obs.Histogram("superproxy_connect_ms", nil),
		}
	}
	p.ln = ln
	p.wg.Add(1)
	go p.serve()
	return nil
}

// Addr returns the bound address.
func (p *RealProxy) Addr() string { return p.ln.Addr().String() }

// Close stops the proxy and waits for in-flight tunnels to wind down.
func (p *RealProxy) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *RealProxy) serve() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn)
		}()
	}
}

func (p *RealProxy) handle(conn net.Conn) {
	defer conn.Close()
	hs := p.HandshakeTimeout
	if hs <= 0 {
		hs = 30 * time.Second
	}
	conn.SetDeadline(time.Now().Add(hs))
	maxHdr := p.MaxHeaderBytes
	if maxHdr <= 0 {
		maxHdr = 16 << 10
	}
	// The limit applies only to the handshake: the splice below reads
	// from conn directly, so tunnel payload is unmetered.
	lr := &io.LimitedReader{R: conn, N: int64(maxHdr)}
	br := bufio.NewReader(lr)
	req, err := http.ReadRequest(br)
	if err != nil {
		if lr.N <= 0 {
			// The request hit the header cap, not a genuine EOF.
			p.instr.reject()
			io.WriteString(conn, "HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Length: 0\r\n\r\n")
		}
		return
	}
	if req.Method != http.MethodConnect {
		resp := "HTTP/1.1 405 Method Not Allowed\r\nContent-Length: 0\r\n\r\n"
		p.instr.reject()
		io.WriteString(conn, resp)
		return
	}

	procStart := time.Now()
	if p.ProcessingDelay > 0 {
		time.Sleep(p.ProcessingDelay)
	}
	host, port, err := net.SplitHostPort(req.Host)
	if err != nil {
		p.instr.reject()
		io.WriteString(conn, "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n")
		return
	}
	proc := time.Since(procStart)

	// Exit-node side: resolve the target with the default resolver.
	var dnsDur time.Duration
	target := host
	if _, err := netip.ParseAddr(host); err != nil {
		if p.ResolverAddr == "" {
			p.instr.reject()
			io.WriteString(conn, "HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n")
			return
		}
		addr, dur, rerr := p.resolve(host)
		dnsDur = dur
		if rerr != nil {
			p.instr.reject()
			io.WriteString(conn, "HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n")
			return
		}
		target = addr.String()
	}

	connectStart := time.Now()
	upstream, err := p.Dialer.Dial("tcp", net.JoinHostPort(target, port))
	if err != nil {
		p.instr.reject()
		io.WriteString(conn, "HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n")
		return
	}
	defer upstream.Close()
	connectDur := time.Since(connectStart)
	p.instr.tunnel(dnsDur, connectDur)

	tun := TunTimeline{DNS: dnsDur, Connect: connectDur}
	timeline := ProxyTimeline{
		Auth:       proc / 4,
		Init:       proc / 4,
		SelectExit: proc / 4,
		Validate:   proc - 3*(proc/4),
	}
	fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\n%s: %s\r\n%s: %s\r\n\r\n",
		TunTimelineHeader, tun.Encode(), TimelineHeader, timeline.Encode())

	// Splice the tunnel. Clear deadlines: the client controls pacing.
	conn.SetDeadline(time.Time{})
	upstream.SetDeadline(time.Time{})
	done := make(chan struct{}, 2)
	go func() {
		// Drain anything the client pipelined into the reader buffer.
		if n := br.Buffered(); n > 0 {
			buf := make([]byte, n)
			br.Read(buf)
			upstream.Write(buf)
		}
		io.Copy(upstream, conn)
		upstream.(*net.TCPConn).CloseWrite()
		done <- struct{}{}
	}()
	go func() {
		io.Copy(conn, upstream)
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}

// resolve performs the exit node's DNS lookup of host.
func (p *RealProxy) resolve(host string) (netip.Addr, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 6*time.Second)
	defer cancel()
	start := time.Now()
	resp, _, err := p.dns.Query(ctx, p.ResolverAddr, dnswire.NewName(host), dnswire.TypeA)
	dur := time.Since(start)
	if err != nil {
		return netip.Addr{}, dur, err
	}
	for _, rr := range resp.Answers {
		if a, ok := rr.Data.(dnswire.ARecord); ok {
			return a.Addr, dur, nil
		}
	}
	return netip.Addr{}, dur, fmt.Errorf("proxynet: no A record for %q", host)
}

// DialViaProxy opens a tunnel to target (host:port) through the
// CONNECT proxy at proxyAddr, returning the spliced connection, the
// parsed timing headers, and the tunnel-establishment duration
// (T_B - T_A at the client). The returned conn speaks directly to the
// target.
func DialViaProxy(ctx context.Context, proxyAddr, target string) (net.Conn, TunTimeline, ProxyTimeline, time.Duration, error) {
	var d net.Dialer
	start := time.Now()
	conn, err := d.DialContext(ctx, "tcp", proxyAddr)
	if err != nil {
		return nil, TunTimeline{}, ProxyTimeline{}, 0, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	}
	fmt.Fprintf(conn, "CONNECT %s HTTP/1.1\r\nHost: %s\r\n\r\n", target, target)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodConnect})
	if err != nil {
		conn.Close()
		return nil, TunTimeline{}, ProxyTimeline{}, 0, err
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		conn.Close()
		return nil, TunTimeline{}, ProxyTimeline{}, 0,
			fmt.Errorf("proxynet: CONNECT failed: %s", resp.Status)
	}
	tun, err := ParseTunTimeline(resp.Header.Get(TunTimelineHeader))
	if err != nil {
		conn.Close()
		return nil, TunTimeline{}, ProxyTimeline{}, 0, err
	}
	timeline, err := ParseProxyTimeline(resp.Header.Get(TimelineHeader))
	if err != nil {
		conn.Close()
		return nil, TunTimeline{}, ProxyTimeline{}, 0, err
	}
	if br.Buffered() > 0 {
		// The server must not speak before the client on a fresh
		// tunnel; anything here indicates a confused proxy.
		conn.Close()
		return nil, TunTimeline{}, ProxyTimeline{}, 0, errors.New("proxynet: unexpected data after CONNECT")
	}
	conn.SetDeadline(time.Time{})
	return conn, tun, timeline, elapsed, nil
}
