// Command benchwire runs the DNS wire-format and transport benchmarks
// and writes BENCH_wire.json: ns/op, B/op and allocs/op for the codec
// hot path and one end-to-end exchange per transport (Do53 over a
// loopback UDP responder, DoH against an in-process RFC 8484 server,
// DoT against an in-process TLS server). Each entry carries the
// baseline it is held against (see baselines), so the JSON doubles as
// a regression record: re-run the command and compare.
//
// Usage:
//
//	go run ./cmd/benchwire [-o BENCH_wire.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http/httptest"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dohserver"
	"repro/internal/dot"
	"repro/internal/recursive"
	"repro/internal/tlsutil"
)

type benchNumbers struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type benchEntry struct {
	Name              string       `json:"name"`
	Baseline          benchNumbers `json:"baseline"`
	Current           benchNumbers `json:"current"`
	AllocsReductionPc float64      `json:"allocs_reduction_pct"`
}

// exchangeSummary aggregates the end-to-end exchange benches (the
// exchange_* rows), the headline figure the regression harness gates
// on.
type exchangeSummary struct {
	BaselineAllocsPerOp int64   `json:"baseline_allocs_per_op"`
	CurrentAllocsPerOp  int64   `json:"current_allocs_per_op"`
	AllocsReductionPc   float64 `json:"allocs_reduction_pct"`
}

type report struct {
	Generated    string          `json:"generated"`
	GoVersion    string          `json:"go_version"`
	GOOS         string          `json:"goos"`
	GOARCH       string          `json:"goarch"`
	BaselineNote string          `json:"baseline_note"`
	ExchangePath exchangeSummary `json:"exchange_path_summary"`
	Benches      []benchEntry    `json:"benches"`
}

// Pre-change numbers, measured with `go test -bench -benchtime=2s` on
// the tree immediately before the AppendPack/UnpackInto rewrite
// (linux/amd64, Intel Xeon 2.70GHz). They are the fixed yardstick the
// current run is compared against. exchange_doh is the exception: its
// yardstick is the row that rewrite left behind (net/http still on the
// client's wire path; 160 allocs/op before it), so the row shows what
// dohclient's own HTTP/1.1 engine and the dohserver handler trims
// bought.
var baselines = map[string]benchNumbers{
	"wire_pack_unpack": {NsPerOp: 1013, BytesPerOp: 736, AllocsPerOp: 14},
	"exchange_do53":    {NsPerOp: 28593, BytesPerOp: 68241, AllocsPerOp: 60},
	"exchange_doh":     {NsPerOp: 33286, BytesPerOp: 9529, AllocsPerOp: 113},
	"exchange_dot":     {NsPerOp: 23847, BytesPerOp: 2224, AllocsPerOp: 52},
}

func main() {
	out := flag.String("o", "BENCH_wire.json", "output path for the JSON report")
	flag.Parse()

	rep := report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		BaselineNote: "baseline: pre-zero-allocation tree, go test -bench " +
			"-benchtime=2s (exchange_doh: the net/http client path that " +
			"tree's rewrite left, 160 allocs/op before it); current: " +
			"testing.Benchmark (~1s per bench)",
	}

	add := func(name string, fn func(b *testing.B)) {
		fmt.Fprintf(os.Stderr, "running %s...\n", name)
		r := testing.Benchmark(fn)
		cur := benchNumbers{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		e := benchEntry{Name: name, Baseline: baselines[name], Current: cur}
		if base := e.Baseline.AllocsPerOp; base > 0 {
			e.AllocsReductionPc = 100 * float64(base-cur.AllocsPerOp) / float64(base)
		}
		rep.Benches = append(rep.Benches, e)
		fmt.Fprintf(os.Stderr, "  %s: %.0f ns/op, %d B/op, %d allocs/op (baseline %d allocs/op)\n",
			name, cur.NsPerOp, cur.BytesPerOp, cur.AllocsPerOp, e.Baseline.AllocsPerOp)
	}

	add("wire_pack_unpack", benchPackUnpack)
	add("exchange_do53", benchDo53())
	add("exchange_doh", benchDoH())
	add("exchange_dot", benchDoT())

	for _, e := range rep.Benches {
		if !strings.HasPrefix(e.Name, "exchange_") {
			continue
		}
		rep.ExchangePath.BaselineAllocsPerOp += e.Baseline.AllocsPerOp
		rep.ExchangePath.CurrentAllocsPerOp += e.Current.AllocsPerOp
	}
	if base := rep.ExchangePath.BaselineAllocsPerOp; base > 0 {
		rep.ExchangePath.AllocsReductionPc =
			100 * float64(base-rep.ExchangePath.CurrentAllocsPerOp) / float64(base)
	}
	fmt.Fprintf(os.Stderr, "exchange path: %d -> %d allocs/op (%.1f%% reduction)\n",
		rep.ExchangePath.BaselineAllocsPerOp, rep.ExchangePath.CurrentAllocsPerOp,
		rep.ExchangePath.AllocsReductionPc)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchwire: "+format+"\n", args...)
	os.Exit(1)
}

// benchResponse mirrors the message shape used by the dnswire package
// benchmarks: a compressed A response with an NS authority and an
// EDNS0 OPT.
func benchResponse() *dnswire.Message {
	q := dnswire.NewQuery(0x1234, "test.a.com.", dnswire.TypeA)
	m := q.Reply()
	for i := 0; i < 3; i++ {
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: "test.a.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.ARecord{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)})},
		})
	}
	m.Authorities = append(m.Authorities, dnswire.ResourceRecord{
		Name: "a.com.", Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 86400,
		Data: dnswire.NSRecord{NS: "ns1.a.com."},
	})
	m.Additionals = append(m.Additionals, dnswire.ResourceRecord{
		Name: ".", Type: dnswire.TypeOPT,
		Data: dnswire.OPTRecord{UDPSize: 1232},
	})
	return m
}

func benchPackUnpack(b *testing.B) {
	msg := benchResponse()
	var m dnswire.Message
	wire, err := msg.AppendPack(make([]byte, 0, 512))
	if err != nil {
		b.Fatal(err)
	}
	if err := dnswire.UnpackInto(wire, &m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err = msg.AppendPack(wire[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := dnswire.UnpackInto(wire, &m); err != nil {
			b.Fatal(err)
		}
	}
}

// testResolver answers every query with a single fixed A record.
func testResolver() *recursive.Resolver {
	res := recursive.New(nil)
	res.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		m := q.Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA,
			Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.9")},
		})
		return m, nil
	}))
	return res
}

// benchDo53 measures one UDP exchange against a loopback responder
// that echoes each query with a one-answer reply.
func benchDo53() func(b *testing.B) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		fatalf("do53 listen: %v", err)
	}
	go func() {
		buf := make([]byte, 65535)
		q := dnswire.GetMessage()
		out := dnswire.GetBuffer()
		for {
			n, src, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if err := dnswire.UnpackInto(buf[:n], q); err != nil || len(q.Questions) == 0 {
				continue
			}
			resp := q.Reply()
			resp.Answers = append(resp.Answers, dnswire.ResourceRecord{
				Name: q.Questions[0].Name, Type: dnswire.TypeA,
				Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.9")},
			})
			wire, err := resp.AppendPack(out.B[:0])
			if err != nil {
				continue
			}
			out.B = wire
			conn.WriteToUDP(wire, src)
		}
	}()
	addr := conn.LocalAddr().String()
	return func(b *testing.B) {
		c := &dnsclient.Client{Timeout: 5 * time.Second}
		q := dnswire.NewQuery(0x4242, "bench.a.com.", dnswire.TypeA)
		ctx := context.Background()
		if resp, _, err := c.Exchange(ctx, addr, q); err != nil {
			b.Fatal(err)
		} else {
			dnswire.PutMessage(resp)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, _, err := c.Exchange(ctx, addr, q)
			if err != nil {
				b.Fatal(err)
			}
			dnswire.PutMessage(resp)
		}
	}
}

// benchDoH measures one RFC 8484 GET exchange against an in-process
// DoH server fronting a caching resolver (steady state: warm cache,
// reused HTTP connection).
func benchDoH() func(b *testing.B) {
	srv := httptest.NewServer(dohserver.NewHandler(testResolver()).Mux())
	c, err := dohclient.New(srv.URL+dohserver.DefaultPath, nil)
	if err != nil {
		fatalf("doh client: %v", err)
	}
	return func(b *testing.B) {
		q := dnswire.NewQuery(0x4242, "bench.a.com.", dnswire.TypeA)
		ctx := context.Background()
		if resp, _, err := c.Exchange(ctx, q); err != nil {
			b.Fatal(err)
		} else {
			dnswire.PutMessage(resp)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, _, err := c.Exchange(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			dnswire.PutMessage(resp)
		}
	}
}

// benchDoT measures one DNS-over-TLS exchange on a persistent
// connection to an in-process TLS server.
func benchDoT() func(b *testing.B) {
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		fatalf("dot tls: %v", err)
	}
	srv := dot.NewServer(testResolver(), cfg)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		fatalf("dot listen: %v", err)
	}
	return func(b *testing.B) {
		c := &dot.Client{Addr: srv.Addr(), TLSConfig: tlsutil.InsecureClientConfig()}
		defer c.Close()
		q := dnswire.NewQuery(0x4242, "bench.a.com.", dnswire.TypeA)
		ctx := context.Background()
		if resp, _, err := c.Exchange(ctx, q); err != nil {
			b.Fatal(err)
		} else {
			dnswire.PutMessage(resp)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, _, err := c.Exchange(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			dnswire.PutMessage(resp)
		}
	}
}
