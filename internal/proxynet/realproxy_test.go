package proxynet

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/obs"
)

// echoTCP starts a TCP server that echoes one line back.
func echoTCP(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				line, err := bufio.NewReader(conn).ReadString('\n')
				if err != nil {
					return
				}
				io.WriteString(conn, "echo:"+line)
			}()
		}
	}()
	return ln
}

func startProxy(t *testing.T, resolverAddr string) *RealProxy {
	t.Helper()
	p := &RealProxy{ResolverAddr: resolverAddr}
	if err := p.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestRealProxyTunnelsIPLiteral(t *testing.T) {
	target := echoTCP(t)
	p := startProxy(t, "")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, tun, timeline, dur, err := DialViaProxy(ctx, p.Addr(), target.Addr().String())
	if err != nil {
		t.Fatalf("DialViaProxy: %v", err)
	}
	defer conn.Close()
	if tun.DNS != 0 {
		t.Errorf("DNS time %v for an IP-literal target, want 0", tun.DNS)
	}
	if tun.Connect <= 0 {
		t.Errorf("Connect = %v", tun.Connect)
	}
	if dur <= 0 {
		t.Errorf("tunnel duration = %v", dur)
	}
	_ = timeline
	fmt.Fprintf(conn, "hello\n")
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("read through tunnel: %v", err)
	}
	if reply != "echo:hello\n" {
		t.Errorf("reply = %q", reply)
	}
}

func TestRealProxyProcessingDelayReported(t *testing.T) {
	target := echoTCP(t)
	p := &RealProxy{ProcessingDelay: 30 * time.Millisecond}
	if err := p.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, _, timeline, _, err := DialViaProxy(ctx, p.Addr(), target.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if timeline.Total() < 30*time.Millisecond {
		t.Errorf("proxy timeline total = %v, want >= 30ms", timeline.Total())
	}
	// The four components partition the total.
	sum := timeline.Auth + timeline.Init + timeline.SelectExit + timeline.Validate
	if sum != timeline.Total() {
		t.Errorf("components sum %v != total %v", sum, timeline.Total())
	}
}

func TestRealProxyResolvesHostnames(t *testing.T) {
	target := echoTCP(t)
	_, portStr, err := net.SplitHostPort(target.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	zone := authserver.NewZone("test.")
	if err := zone.Add(dnswire.ResourceRecord{Name: "svc.test.", TTL: 60,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("127.0.0.1")}}); err != nil {
		t.Fatal(err)
	}
	dns := authserver.NewServer(zone)
	if err := dns.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer dns.Shutdown(context.Background())

	p := startProxy(t, dns.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, tun, _, _, err := DialViaProxy(ctx, p.Addr(), "svc.test:"+portStr)
	if err != nil {
		t.Fatalf("DialViaProxy via hostname: %v", err)
	}
	defer conn.Close()
	if tun.DNS <= 0 {
		t.Errorf("DNS = %v, want > 0 for a hostname target", tun.DNS)
	}
	if len(dns.QueryLog()) == 0 {
		t.Error("resolver never queried")
	}
}

func TestRealProxyNoResolverRejectsHostnames(t *testing.T) {
	p := startProxy(t, "")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, _, _, err := DialViaProxy(ctx, p.Addr(), "name.example:80"); err == nil {
		t.Fatal("hostname CONNECT succeeded without a resolver")
	}
}

func TestRealProxyBadConnectTarget(t *testing.T) {
	p := startProxy(t, "")
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "CONNECT no-port-here HTTP/1.1\r\nHost: no-port-here\r\n\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(conn), &http.Request{Method: http.MethodConnect})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %s, want 400", resp.Status)
	}
}

func TestRealProxyUnreachableUpstream(t *testing.T) {
	p := startProxy(t, "")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// 192.0.2.0/24 is TEST-NET-1; connection will fail fast or time out.
	_, _, _, _, err := DialViaProxy(ctx, p.Addr(), "127.0.0.1:1")
	if err == nil {
		t.Fatal("CONNECT to a closed port succeeded")
	}
	if !strings.Contains(err.Error(), "502") && !strings.Contains(err.Error(), "CONNECT failed") {
		t.Logf("error: %v (any failure acceptable)", err)
	}
}

func TestRealProxyConcurrentTunnels(t *testing.T) {
	target := echoTCP(t)
	p := startProxy(t, "")
	const tunnels = 16
	errs := make(chan error, tunnels)
	for i := 0; i < tunnels; i++ {
		go func(i int) {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			conn, _, _, _, err := DialViaProxy(ctx, p.Addr(), target.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			msg := fmt.Sprintf("tunnel-%d\n", i)
			fmt.Fprint(conn, msg)
			reply, err := bufio.NewReader(conn).ReadString('\n')
			if err != nil {
				errs <- err
				return
			}
			if reply != "echo:"+msg {
				errs <- fmt.Errorf("tunnel %d got %q", i, reply)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < tunnels; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRealProxyMetrics(t *testing.T) {
	target := echoTCP(t)
	reg := obs.NewRegistry()
	p := &RealProxy{Obs: reg}
	if err := p.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, _, _, _, err := DialViaProxy(ctx, p.Addr(), target.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// A hostname CONNECT without a resolver is rejected and counted.
	if _, _, _, _, err := DialViaProxy(ctx, p.Addr(), "name.example:80"); err == nil {
		t.Fatal("hostname CONNECT succeeded without a resolver")
	}

	if got := reg.Counter("superproxy_tunnels_total").Value(); got != 1 {
		t.Errorf("tunnels_total = %d, want 1", got)
	}
	if got := reg.Counter("superproxy_rejects_total").Value(); got != 1 {
		t.Errorf("rejects_total = %d, want 1", got)
	}
	if got := reg.Histogram("superproxy_connect_ms", nil).Count(); got != 1 {
		t.Errorf("connect histogram count = %d, want 1", got)
	}
}
