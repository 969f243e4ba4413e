// Command benchserve measures the unified serving engine under
// closed-loop loopback load and writes BENCH_serve.json: throughput
// (QPS) and latency (p50/p99) for Do53, DoT, and DoH at 1, 2, and
// NumCPU listeners. Each protocol row carries the pre-engine baseline
// measured on the legacy per-package serving loops, so the JSON
// doubles as a regression record: re-run the command and compare.
//
// The single-listener Do53 anchor row runs a faithful reproduction of
// the pre-engine serving loop (mode "legacy-loop": one datagram per
// syscall, a buffer copy and goroutine per packet, unbounded query
// log) under the same generator, so the engine rows isolate what the
// redesign adds: inline handling on pooled scratch, recvmmsg/sendmmsg
// batching, and SO_REUSEPORT socket sharding.
//
// Usage:
//
//	go run ./cmd/benchserve [-c 16] [-d 2s] [-o BENCH_serve.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/netip"
	"os"
	"runtime"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/dot"
	"repro/internal/recursive"
	"repro/internal/serve"
	"repro/internal/tlsutil"
)

type row struct {
	Proto     string `json:"proto"`
	Listeners int    `json:"listeners"`
	BatchSize int    `json:"batch_size,omitempty"`
	// Mode records how datagrams met the handler: "dispatch" hands
	// each one to a worker goroutine (the legacy servers' shape),
	// "inline" answers on the listener goroutine.
	Mode  string  `json:"mode,omitempty"`
	QPS   float64 `json:"qps"`
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
	Errs  int64   `json:"errs"`
	// Overload-row extras: OfferedQPS is the total query rate the
	// generator achieved (accepted + shed), ShedRatio the fraction the
	// admission budget refused with SERVFAIL. QPS/P50/P99 above then
	// cover accepted queries only — the latency contract the shedding
	// exists to protect.
	OfferedQPS float64 `json:"offered_qps,omitempty"`
	ShedRatio  float64 `json:"shed_ratio,omitempty"`
	// SpeedupVsSingle is QPS relative to the same protocol's first
	// (single-listener) row.
	SpeedupVsSingle float64 `json:"speedup_vs_single,omitempty"`
}

type baseline struct {
	QPS   float64 `json:"qps"`
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
}

type report struct {
	Generated    string              `json:"generated"`
	GoVersion    string              `json:"go_version"`
	GOOS         string              `json:"goos"`
	GOARCH       string              `json:"goarch"`
	NumCPU       int                 `json:"num_cpu"`
	Clients      int                 `json:"clients"`
	DurationSec  float64             `json:"duration_sec"`
	BaselineNote string              `json:"baseline_note"`
	Baselines    map[string]baseline `json:"legacy_baselines"`
	Rows         []row               `json:"rows"`
}

// Pre-engine numbers, measured with this harness (-c 16 -d 2s) against
// the legacy per-package serving loops (goroutine-per-datagram
// authserver, goroutine-per-connection DoT, httptest DoH handler) on
// the tree immediately before the serve-engine rewrite (linux/amd64,
// Intel Xeon 2.10GHz, 1 vCPU). They are the fixed yardstick the
// current run is compared against.
var legacyBaselines = map[string]baseline{
	"do53": {QPS: 104218, P50Us: 118, P99Us: 525},
	"dot":  {QPS: 74072, P50Us: 163, P99Us: 869},
	"doh":  {QPS: 25696, P50Us: 525, P99Us: 1980},
}

func benchZone() *authserver.Zone {
	origin := dnswire.NewName("a.com")
	z := authserver.NewZone(origin)
	if err := z.SetSOA(dnswire.NewName("ns1.a.com"), dnswire.NewName("hostmaster.a.com"), 1); err != nil {
		panic(err)
	}
	addr := netip.MustParseAddr("203.0.113.9")
	for _, rr := range []dnswire.ResourceRecord{
		{Name: origin, TTL: 3600, Data: dnswire.NSRecord{NS: dnswire.NewName("ns1.a.com")}},
		{Name: dnswire.NewName("ns1.a.com"), TTL: 3600, Data: dnswire.ARecord{Addr: addr}},
		{Name: dnswire.NewName("*.a.com"), TTL: 60, Data: dnswire.ARecord{Addr: addr}},
	} {
		if err := z.Add(rr); err != nil {
			panic(err)
		}
	}
	return z
}

// listenerSweep is the ladder every protocol climbs: single listener
// first (the comparison anchor), then 2-way sharding, and — only when
// the scheduler actually has more than one core to spread shards over
// (GOMAXPROCS > 1, not NumCPU, which overcounts in cpu-capped
// containers) — a GOMAXPROCS-way row demonstrating multi-core scaling.
// The guard keeps the committed 1-vCPU BENCH_serve.json byte-stable
// while a multi-core run gains the scaling row; a 2-core host's
// GOMAXPROCS-way row coincides with the 2-listener rung.
func listenerSweep() []int {
	sweep := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		sweep = append(sweep, n)
	}
	return sweep
}

func main() {
	clients := flag.Int("c", 16, "concurrent closed-loop clients")
	dur := flag.Duration("d", 2*time.Second, "duration per row")
	out := flag.String("o", "BENCH_serve.json", "output path for the JSON report")
	flag.Parse()

	rep := report{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Clients:     *clients,
		DurationSec: dur.Seconds(),
		BaselineNote: "legacy_baselines: pre-engine per-package serving loops " +
			"measured closed-loop on the tree before the rewrite; the do53 " +
			"mode=legacy-loop row re-runs that serving shape (single socket, " +
			"goroutine per datagram, unbounded query log) under this run's " +
			"pipelined generator as the single-listener anchor",
		Baselines: legacyBaselines,
	}

	add := func(proto string, listeners, batch int, mode string, r loadResult, anchor float64) float64 {
		entry := row{
			Proto: proto, Listeners: listeners, BatchSize: batch, Mode: mode,
			QPS:   r.QPS,
			P50Us: float64(r.P50.Microseconds()),
			P99Us: float64(r.P99.Microseconds()),
			Errs:  r.Errs,
		}
		if anchor > 0 {
			entry.SpeedupVsSingle = r.QPS / anchor
		}
		rep.Rows = append(rep.Rows, entry)
		fmt.Fprintf(os.Stderr, "%s listeners=%d batch=%d mode=%s: %.0f qps p50=%v p99=%v errs=%d\n",
			proto, listeners, batch, mode, r.QPS, r.P50, r.P99, r.Errs)
		if anchor == 0 {
			return r.QPS
		}
		return anchor
	}

	// Do53: the authoritative server under the pipelined generator
	// (each client keeps a window of queries outstanding, so the
	// socket backlog the batched reader amortises actually exists).
	// The anchor row runs the reproduced pre-engine serving loop on
	// one socket — one datagram per syscall, a copy and a goroutine
	// per packet (see legacy.go) — so later rows measure what the
	// engine proper adds: inline handling on pooled scratch, mmsg
	// batching, and SO_REUSEPORT sharding.
	pipeWorkers := *clients / 2
	if pipeWorkers < 1 {
		pipeWorkers = 1
	}
	legacy, err := startLegacyDo53(benchZone())
	if err != nil {
		panic(err)
	}
	anchor := add("do53", 1, 1, "legacy-loop",
		runPipelinedUDP(pipeWorkers, 32, *dur, legacy.addr()), 0)
	legacy.close()
	for _, n := range listenerSweep() {
		srv := authserver.NewServer(benchZone())
		srv.Listeners, srv.BatchSize = n, serve.DefaultBatchSize
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			panic(err)
		}
		r := runPipelinedUDP(pipeWorkers, 32, *dur, srv.Addr())
		add("do53", n, serve.DefaultBatchSize, "inline", r, anchor)
		srv.Shutdown(context.Background())
	}

	// Overload: the engine with an admission budget far below the
	// offered load — a handler that costs ~1ms (a cache-missing
	// recursive lookup's shape) behind a budget of twice the worker
	// pool, while the pipelined generator keeps an order of magnitude
	// more outstanding. The budget must sit below the dispatch
	// pipeline's natural depth (workers + queue), else queue
	// backpressure throttles the reader first and excess load waits in
	// the socket buffer instead of being shed. The row records the
	// degradation contract: offered vs accepted QPS, the shed ratio,
	// and the latency of the queries that were accepted, which the
	// budget keeps bounded instead of letting them queue.
	{
		ovSrv, err := serve.New("127.0.0.1:0", serve.Options{
			Packet:      serve.PacketHandlerFunc(overloadHandler),
			Concurrency: 8,
			BatchSize:   serve.DefaultBatchSize,
			Protection:  serve.Protection{MaxInflight: 16},
		})
		if err != nil {
			panic(err)
		}
		r, offered, shedRatio := runOverloadUDP(pipeWorkers, 64, *dur, ovSrv.Addr())
		entry := row{
			Proto: "do53", Listeners: 1, BatchSize: serve.DefaultBatchSize,
			Mode:  "overload",
			QPS:   r.QPS,
			P50Us: float64(r.P50.Microseconds()),
			P99Us: float64(r.P99.Microseconds()),
			Errs:  r.Errs, OfferedQPS: offered, ShedRatio: shedRatio,
		}
		rep.Rows = append(rep.Rows, entry)
		fmt.Fprintf(os.Stderr, "do53 mode=overload: offered %.0f qps, accepted %.0f qps (shed %.1f%%) p50=%v p99=%v errs=%d\n",
			offered, r.QPS, shedRatio*100, r.P50, r.P99, r.Errs)
		ovSrv.Close()
	}

	// DoT: the engine-backed TLS front end on a static resolver.
	res := recursive.New(nil)
	res.SetDefault(recursive.UpstreamFunc(staticUpstream))
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		panic(err)
	}
	anchor = 0
	for i, n := range listenerSweep() {
		ds := dot.NewServer(res, cfg)
		ds.Listeners = n
		if err := ds.ListenAndServe("127.0.0.1:0"); err != nil {
			panic(err)
		}
		r := runLoad(*clients, *dur, func(int) func() error { return dotWorker(ds.Addr()) })
		if i == 0 {
			anchor = add("dot", n, 0, "stream", r, 0)
		} else {
			add("dot", n, 0, "stream", r, anchor)
		}
		ds.Shutdown(context.Background())
	}

	// DoH: the RFC 8484 handler behind n SO_REUSEPORT accept queues,
	// one http.Server per queue (plain HTTP isolates the serving loop
	// from TLS cost, matching the legacy baseline's httptest setup).
	anchor = 0
	for i, n := range listenerSweep() {
		lns, err := serve.ReusePortTCP("127.0.0.1:0", n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doh listeners=%d: %v (skipping)\n", n, err)
			continue
		}
		mux := dohserver.NewHandler(res).Mux()
		srvs := make([]*http.Server, len(lns))
		for j, ln := range lns {
			srvs[j] = &http.Server{Handler: mux}
			go srvs[j].Serve(ln)
		}
		url := "http://" + lns[0].Addr().String() + dohserver.DefaultPath
		r := runLoad(*clients, *dur, func(int) func() error { return dohWorker(url) })
		if i == 0 {
			anchor = add("doh", n, 0, "http", r, 0)
		} else {
			add("doh", n, 0, "http", r, anchor)
		}
		for _, s := range srvs {
			s.Close()
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		panic(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
