package batchio

import (
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"
)

func echoServer(t *testing.T, size int) (addr string, stop func()) {
	t.Helper()
	uaddr, _ := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	b := New(conn, size)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resps := make([][]byte, size)
		for {
			n, err := b.Read()
			if err != nil {
				return
			}
			for i := 0; i < n; i++ {
				resps[i] = append([]byte(nil), b.Packet(i)...)
			}
			if err := b.Write(resps[:n]); err != nil {
				return
			}
		}
	}()
	return conn.LocalAddr().String(), func() {
		conn.Close()
		<-done
	}
}

// TestConnBatchRoundTrip pipelines a window of datagrams from one
// connected socket through the batched server and checks every datagram
// comes back intact.
func TestConnBatchRoundTrip(t *testing.T) {
	for _, size := range []int{1, 8} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			addr, stop := echoServer(t, size)
			defer stop()
			c, err := net.Dial("udp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			const total = 20
			pkts := make([][]byte, total)
			for i := range pkts {
				pkts[i] = []byte(fmt.Sprintf("pkt-%02d", i))
				if _, err := c.Write(pkts[i]); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			seen := make(map[string]bool)
			buf := make([]byte, 64)
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			for len(seen) < total {
				n, err := c.Read(buf)
				if err != nil {
					t.Fatalf("read after %d/%d: %v", len(seen), total, err)
				}
				seen[string(buf[:n])] = true
			}
			for i := range pkts {
				if !seen[string(pkts[i])] {
					t.Fatalf("packet %q never echoed", pkts[i])
				}
			}
		})
	}
}

// TestBatchAddrsEcho checks the server-side Batch reports usable
// source addresses (responses reach the right socket).
func TestBatchAddrsEcho(t *testing.T) {
	addr, stop := echoServer(t, 4)
	defer stop()
	conns := make([]*net.UDPConn, 3)
	for i := range conns {
		c, err := net.Dial("udp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		conns[i] = c.(*net.UDPConn)
		msg := fmt.Sprintf("from-%d", i)
		if _, err := c.Write([]byte(msg)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	buf := make([]byte, 64)
	for i, c := range conns {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("conn %d read: %v", i, err)
		}
		if want := fmt.Sprintf("from-%d", i); string(buf[:n]) != want {
			t.Fatalf("conn %d got %q, want %q", i, buf[:n], want)
		}
	}
}

// TestReusePort binds two UDP sockets to one port where the platform
// allows it, and checks the advertised capability matches reality.
func TestReusePort(t *testing.T) {
	if !ReusePortAvailable {
		if _, err := ListenUDPReusePort("127.0.0.1:0"); err == nil {
			t.Fatal("ListenUDPReusePort succeeded with ReusePortAvailable=false")
		}
		t.Skip("SO_REUSEPORT unavailable on this platform")
	}
	first, err := ListenUDPReusePort("127.0.0.1:0")
	if err != nil {
		t.Fatalf("first bind: %v", err)
	}
	defer first.Close()
	second, err := ListenUDPReusePort(first.LocalAddr().String())
	if err != nil {
		t.Fatalf("second bind on %s: %v", first.LocalAddr(), err)
	}
	second.Close()
}

// TestBatchAllocationFree is the gate on the per-datagram cost of the
// batch surface: Read, Packet, Addr and Write allocate nothing, on the
// mmsg path and on the portable loop. Addr is also checked against the
// socket the datagram really came from, on an IPv4 and (where the host
// has one) a dual-stack listener, whose IPv4 sources must come back
// unmapped.
func TestBatchAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		listen string
		size   int
	}{{"127.0.0.1:0", 8}, {"127.0.0.1:0", 1}, {"[::]:0", 8}} {
		t.Run(fmt.Sprintf("%s size=%d", tc.listen, tc.size), func(t *testing.T) {
			uaddr, _ := net.ResolveUDPAddr("udp", tc.listen)
			srv, err := net.ListenUDP("udp", uaddr)
			if err != nil {
				t.Skipf("listen %s: %v", tc.listen, err)
			}
			defer srv.Close()
			port := srv.LocalAddr().(*net.UDPAddr).Port
			cli, err := net.Dial("udp", fmt.Sprintf("127.0.0.1:%d", port))
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			want := cli.LocalAddr().(*net.UDPAddr).AddrPort()

			b := New(srv, tc.size)
			query, reply := []byte("ping"), make([]byte, 16)
			resps := make([][]byte, tc.size)
			deadline := time.Now().Add(30 * time.Second)
			srv.SetReadDeadline(deadline)
			cli.SetReadDeadline(deadline)
			var got netip.AddrPort
			exchange := func() {
				if _, err := cli.Write(query); err != nil {
					t.Fatal(err)
				}
				n, err := b.Read()
				if err != nil || n != 1 {
					t.Fatalf("Read = %d, %v", n, err)
				}
				got = b.Addr(0)
				resps[0] = b.Packet(0)
				if err := b.Write(resps[:n]); err != nil {
					t.Fatal(err)
				}
				if n, err := cli.Read(reply); err != nil || string(reply[:n]) != "ping" {
					t.Fatalf("echo = %q, %v", reply[:n], err)
				}
			}
			exchange()
			if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 {
				t.Errorf("Read+Addr+Packet+Write: %.1f allocs per datagram, want 0", allocs)
			}
			if got != want {
				t.Errorf("Addr = %v, want the client's %v", got, want)
			}
		})
	}
}
