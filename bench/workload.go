package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dot"
	"repro/internal/resolver"
	"repro/internal/smart"
	"repro/internal/stats"
	"repro/internal/tlsutil"
)

// loadClients is the closed-loop client count of a measured segment:
// two per vCPU of the box the protocol was sized on. Each client owns
// its connection and sends its next query only after the previous
// reply, the way stub resolvers do. One client per vCPU leaves the
// thin workloads (dot_warm, smart_warm) a third idle, and their latency
// then measures how the scheduler parks and wakes threads: p50 moved
// ±25 % between back-to-back segments with 2 clients, ±5 % with 4.
const loadClients = 4

// segSpec describes one segment: one workload on one fresh stack, in
// its own process when the parent spawns it.
type segSpec struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Round    int           `json:"round"`
	Clients  int           `json:"clients"`
	Warmup   time.Duration `json:"warmup_ns"`
	Duration time.Duration `json:"duration_ns"`
	// Trace turns the seam wrappers on and records spans.
	Trace bool `json:"trace,omitempty"`
	// TraceOut, when set, is the file the traced segment appends its
	// spans to.
	TraceOut string `json:"trace_out,omitempty"`
	// Stripe runs the campaign on one 14-country stripe instead of the
	// world (the traced ladder and the smoke test).
	Stripe bool `json:"stripe,omitempty"`
	// Spawned is when the parent started this segment's process, so
	// setup_s covers exec and runtime start-up too.
	Spawned time.Time `json:"spawned"`

	stack stackConfig // tests only; never crosses a process boundary
}

// segResult is what one segment measured. Values is keyed by catalogue
// names (path metrics without their path prefix).
type segResult struct {
	Workload  string             `json:"workload"`
	Round     int                `json:"round"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Ops       int64              `json:"ops"`
	Values    map[string]float64 `json:"values"`
	// CSVHash is the SHA-256 of the campaign's exports.
	CSVHash string `json:"csv_hash,omitempty"`
	// Invalid lists the validity checks this segment failed.
	Invalid []string `json:"invalid,omitempty"`
}

func (r *segResult) invalidf(format string, args ...any) {
	r.Invalid = append(r.Invalid, r.Workload+": "+fmt.Sprintf(format, args...))
}

// nameGen yields a client's query names: the hot set walked in a
// seed-derived permutation, or names no one has asked before.
type nameGen struct {
	hot    []dnswire.Name
	next   int
	unique []byte // "u<seed>-<round>-<client>-" prefix; nil for hot names
	n      int
}

func newNameGen(spec segSpec, client int, unique bool) *nameGen {
	if unique {
		return &nameGen{unique: []byte(fmt.Sprintf("u%d-%d-%d-", spec.Seed, spec.Round, client))}
	}
	rng := rand.New(rand.NewSource(spec.Seed*1_000_003 + int64(spec.Round)*1009 + int64(client)))
	g := &nameGen{hot: make([]dnswire.Name, hotNames)}
	for i, j := range rng.Perm(hotNames) {
		g.hot[i] = hotName(j)
	}
	return g
}

func (g *nameGen) name() dnswire.Name {
	if g.unique == nil {
		n := g.hot[g.next]
		g.next = (g.next + 1) % len(g.hot)
		return n
	}
	b := strconv.AppendInt(append(make([]byte, 0, 40), g.unique...), int64(g.n), 10)
	g.n++
	return dnswire.Name(append(append(b, '.'), zoneName...))
}

// verify checks that resp answers q: ID and question echoed, NOERROR,
// exactly one A record carrying the zone's address.
func verify(q, resp *dnswire.Message) error {
	switch {
	case resp == nil:
		return errors.New("wrong answer: no response")
	case !resp.Header.Response || resp.Header.ID != q.Header.ID:
		return fmt.Errorf("wrong answer: ID %d, want %d", resp.Header.ID, q.Header.ID)
	case len(resp.Questions) != 1 || resp.Questions[0].Type != q.Questions[0].Type ||
		resp.Questions[0].Name != q.Questions[0].Name && !resp.Questions[0].Name.Equal(q.Questions[0].Name):
		return fmt.Errorf("wrong answer: question %v, want %v", resp.Questions, q.Questions)
	case resp.Header.RCode != dnswire.RCodeNoError:
		return fmt.Errorf("wrong answer: rcode %s", resp.Header.RCode)
	case len(resp.Answers) != 1:
		return fmt.Errorf("wrong answer: %d answers, want 1", len(resp.Answers))
	}
	a, ok := resp.Answers[0].Data.(dnswire.ARecord)
	if !ok || a.Addr != answerAddr {
		return fmt.Errorf("wrong answer: answer %v, want A %s", resp.Answers[0].Data, answerAddr)
	}
	return nil
}

// loadClient is one closed-loop client: a transport under the unified
// resolver API, plus the handles its counters are read from.
type loadClient struct {
	res    resolver.Resolver
	unique bool
	// before runs ahead of every exchange, outside the timed window
	// (doh_cold drops its pooled connection there).
	before func()
	close  func()
	doh    *dohclient.Client
	smart  *smart.Resolver

	gen *nameGen
	// lat holds ns per verified answer of the recorded window; in a
	// traced segment only of the slices with tracing on, and latOff of
	// the slices with tracing off.
	lat, latOff []uint32
	ops         int64 // verified answers in the recorded window
	timing      timingSum
	attempted   int64
	failed      int64
	lastErr     error
}

// timingSum accumulates the clients' own per-phase Timing (seam S1)
// over the n answers in lat.
type timingSum struct {
	connect, tls, roundTrip, total time.Duration
	n                              int64
}

func (t *timingSum) add(connect, tls, roundTrip, total time.Duration, n int64) {
	t.connect += connect
	t.tls += tls
	t.roundTrip += roundTrip
	t.total += total
	t.n += n
}

const clientTimeout = 10 * time.Second

func newDoH(url string) (*dohclient.Client, error) {
	return dohclient.New(url, &dohclient.Options{InsecureTLS: true, Timeout: clientTimeout})
}

func newDoT(addr string) *dot.Client {
	return &dot.Client{Addr: addr, Timeout: clientTimeout, TLSConfig: tlsutil.InsecureClientConfig()}
}

func newLoadClient(workload string, st *stack, tr *tracer) (*loadClient, error) {
	c := &loadClient{close: func() {}}
	switch workload {
	case wDoHWarm, wDoHCold, wDoHMiss:
		doh, err := newDoH(st.dohURL)
		if err != nil {
			return nil, err
		}
		c.doh, c.res, c.close = doh, resolver.NewDoH(doh), doh.CloseIdleConnections
		c.unique = workload == wDoHMiss
		if workload == wDoHCold {
			c.before = doh.CloseIdleConnections
		}
	case wDoTWarm:
		d := newDoT(st.dotAddr)
		c.res, c.close = resolver.NewDoT(d), func() { d.Close() }
	case wDo53Miss:
		c.res = resolver.NewDo53(st.do53Addr, &dnsclient.Client{Timeout: clientTimeout})
		c.unique = true
	case wSmartWarm:
		// Built as cmd/dohquery -transport smart builds it: every
		// endpoint under its own (default, so empty) policy stack, one
		// destination, default knobs but one. Background probing is
		// off: the first probe fires on the first remembered query,
		// while the clients and their probes contend for two CPUs, and
		// one inflated DoT sample then lets the DoH probe win; one client
		// in ten spent its whole segment on DoH (the next probe is 15 s
		// away, a segment lasts 3). The remembered-winner path measured
		// here is the same with probing on.
		doh, err := newDoH(st.dohURL)
		if err != nil {
			return nil, err
		}
		d := newDoT(st.dotAddr)
		pol := resolver.Policy{HedgeMax: 2, Metrics: &resolver.Metrics{}}
		var cands []smart.Candidate
		for _, cand := range []struct {
			kind resolver.Kind
			base resolver.Resolver
		}{{resolver.DoT, resolver.NewDoT(d)}, {resolver.DoH, resolver.NewDoH(doh)}} {
			r := resolver.Apply(cand.base, pol)
			if tr != nil {
				r = tr.resolver(seamCandidate+string(cand.kind), r)
			}
			cands = append(cands, smart.Candidate{Kind: cand.kind, Resolver: r})
		}
		sm, err := smart.New(smart.Config{Candidates: cands, SmartOptions: resolver.SmartOptions{ProbeInterval: -1}})
		if err != nil {
			return nil, err
		}
		c.doh, c.smart, c.res = doh, sm, sm
		c.close = func() { sm.Close(); d.Close(); doh.CloseIdleConnections() }
	default:
		return nil, fmt.Errorf("no client for workload %q", workload)
	}
	return c, nil
}

// loadControl tells the clients what phase the segment is in. The
// phase changes only while every client is parked between two queries,
// so no query straddles a change and the layers' counters are read
// with nothing in flight: the boundary counts are exact, not
// approximate to the queries caught at the window's edges.
type loadControl struct {
	mu        sync.Mutex
	cond      *sync.Cond
	parked    int
	pause     atomic.Bool
	recording atomic.Bool
	stop      atomic.Bool
}

func newLoadControl() *loadControl {
	l := &loadControl{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// checkpoint is where a client parks, between two queries, while the
// phase changes.
func (l *loadControl) checkpoint() {
	if !l.pause.Load() {
		return
	}
	l.mu.Lock()
	l.parked++
	l.cond.Broadcast()
	for l.pause.Load() {
		l.cond.Wait()
	}
	l.parked--
	l.mu.Unlock()
}

// quiesce parks all n clients, runs f, and releases them.
func (l *loadControl) quiesce(n int, f func()) {
	l.mu.Lock()
	l.pause.Store(true)
	for l.parked < n {
		l.cond.Wait()
	}
	f()
	l.pause.Store(false)
	l.cond.Broadcast()
	l.mu.Unlock()
}

// loop runs the closed loop until stop. The first warm queries
// establish the connection and count toward setup_s; then ready is
// called and the loop carries on. Warm-up queries and queries sent
// while recording is on are verified and counted; only the latter are
// timed.
func (c *loadClient) loop(ctx context.Context, ctl *loadControl, tr *tracer, warm int, ready func()) {
	id := uint16(1)
	for n := 0; !ctl.stop.Load(); n++ {
		ctl.checkpoint()
		if n == warm {
			ready()
		}
		q := dnswire.NewQuery(id, c.gen.name(), dnswire.TypeA)
		id++
		if c.before != nil {
			c.before()
		}
		rec := ctl.recording.Load()
		traced := tr != nil && tr.on.Load()
		var seq uint64
		if traced {
			seq = tr.begin()
		}
		t0 := time.Now()
		resp, timing, err := c.res.Resolve(ctx, q)
		t1 := time.Now()
		if traced {
			tr.record(seamClient, seq, t0, t1)
		}
		if err == nil {
			err = verify(q, resp)
		}
		dnswire.PutMessage(resp)
		if n >= warm && !rec {
			continue
		}
		c.attempted++
		if err != nil {
			c.failed++
			c.lastErr = err
			continue
		}
		if !rec {
			continue
		}
		c.ops++
		d := t1.Sub(t0)
		if d > time.Duration(^uint32(0)) {
			d = time.Duration(^uint32(0))
		}
		if tr != nil && !traced {
			c.latOff = append(c.latOff, uint32(d))
			continue
		}
		c.lat = append(c.lat, uint32(d))
		c.timing.add(timing.Connect, timing.TLSHandshake, timing.RoundTrip, timing.Total, 1)
	}
}

// counters is a point-in-time read of everything a segment reports as
// a delta: process CPU, allocator, GC and the layers' public Stats().
type counters struct {
	at         time.Time
	host       hostJiffies
	cpu        time.Duration
	mem        runtime.MemStats
	cache      cache.Stats
	dohQueries int64
	doh        dohclient.Stats
	smart      smart.Stats
}

// hostJiffies is the first line of /proc/stat: what all CPUs of this
// (virtual) machine did since boot, and how much of it the hypervisor
// took away to run someone else.
type hostJiffies struct{ total, steal uint64 }

func readHostJiffies() hostJiffies {
	var h hostJiffies
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return h
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostJiffies{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h
}

// selfRusage is getrusage for this process; zero when it fails.
func selfRusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return syscall.Rusage{}
	}
	return ru
}

func processCPU() time.Duration {
	ru := selfRusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(selfRusage().Maxrss) / 1024 } // Linux reports KiB

func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// readCounters reads everything a segment reports as a delta. The
// serving workloads call it with the clients parked.
func readCounters(st *stack, clients []*loadClient) counters {
	c := counters{host: readHostJiffies(), cpu: processCPU()}
	runtime.ReadMemStats(&c.mem)
	if st != nil {
		c.cache = st.cache.Stats()
		c.dohQueries = st.handler.Queries()
	}
	for _, cl := range clients {
		if cl.doh != nil {
			s := cl.doh.Stats()
			c.doh.Exchanges += s.Exchanges
			c.doh.Reused += s.Reused
			c.doh.HTTPErrors += s.HTTPErrors
		}
		if cl.smart != nil {
			s := cl.smart.Stats()
			c.smart.Queries += s.Queries
			c.smart.Races += s.Races
		}
	}
	c.at = time.Now()
	return c
}

// hostCalibUS times a fixed pure-CPU kernel (SHA-256 of 1 MiB) on every
// CPU at once, median of nine, right after the recorded window while
// the process is still warm, so a reader can tell a slow box from a
// slow program. One thread alone does not see a neighbour on the other
// vCPU, and that is the contention that moves these workloads.
func hostCalibUS() float64 {
	bufs := make([][]byte, runtime.GOMAXPROCS(0))
	for i := range bufs {
		bufs[i] = make([]byte, 1<<20)
	}
	var reps []float64
	for i := 0; i < 9; i++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, buf := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sha256.Sum256(buf)
			}()
		}
		wg.Wait()
		reps = append(reps, float64(time.Since(t0))/1e3)
	}
	return quantile(reps, 0.5)
}

// quantile is stats.Quantile for samples known to be non-empty.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setCommon fills the end-to-end and runtime values every workload
// derives the same way from two counter reads around the measured
// window.
func (r *segResult) setCommon(a, b counters, lat []float64) {
	ops := float64(r.Ops)
	wall := b.at.Sub(a.at).Seconds()
	v := r.Values
	v["ops_per_s"] = ratio(ops, wall)
	v["workload.p50_us"] = quantile(lat, 0.5)
	v["workload.p90_us"] = quantile(lat, 0.9)
	v["workload.p99_us"] = quantile(lat, 0.99)
	v["workload.cpu_us_per_op"] = ratio(float64(b.cpu-a.cpu)/1e3, ops)
	v["allocs_per_op"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), ops)
	v["alloc_bytes_per_op"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), ops)
	v["peak_rss_mb"] = peakRSSMB()
	v["runtime.gc_cycles_per_kop"] = ratio(float64(b.mem.NumGC-a.mem.NumGC)*1e3, ops)
	v["runtime.gc_pause_us_per_kop"] = ratio(float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs), ops)
	v["runtime.heap_live_mb"] = heapLiveMB()
	v["host.steal_ratio"] = ratio(float64(b.host.steal-a.host.steal), float64(b.host.total-a.host.total))
}

// warmOps is how many queries each client sends to establish its
// connection before the segment is ready; fixed work, so setup_s
// measures speed.
func warmOps(workload string) int {
	if workload == wDoHCold {
		return 50 // a handshake each
	}
	return 200
}

// runSegment measures one segment in this process.
func runSegment(spec segSpec) (*segResult, error) {
	switch {
	case spec.Workload == rungsWorkload:
		return runRungs(spec)
	case spec.Workload == wCampaign:
		return runCampaign(spec)
	case knownWorkload(spec.Workload):
		return runServing(spec)
	}
	return nil, fmt.Errorf("unknown workload %q", spec.Workload)
}

func runServing(spec segSpec) (*segResult, error) {
	res := &segResult{Workload: spec.Workload, Round: spec.Round, Values: map[string]float64{}}

	cfg := spec.stack
	var tr *tracer
	if spec.Trace {
		tr = newTracer()
		cfg.Tracer = tr
	}
	st, err := newStack(cfg)
	if err != nil {
		return nil, err
	}
	defer st.shutdown()

	clients := make([]*loadClient, spec.Clients)
	for i := range clients {
		c, err := newLoadClient(spec.Workload, st, tr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		c.gen = newNameGen(spec, i, c.unique)
		c.lat = make([]uint32, 0, 1<<20)
		clients[i] = c
	}

	// The deadline only matters when the stack hangs: queries then fail
	// fast instead of holding the run for a timeout each.
	ctx, cancel := context.WithTimeout(context.Background(), spec.Warmup+spec.Duration+time.Minute)
	defer cancel()
	ctl := newLoadControl()
	var ready, done sync.WaitGroup
	for _, c := range clients {
		ready.Add(1)
		done.Add(1)
		go func(c *loadClient) {
			defer done.Done()
			c.loop(ctx, ctl, tr, warmOps(spec.Workload), ready.Done)
		}(c)
	}
	ready.Wait()
	res.Values["setup_s"] = time.Since(spec.Spawned).Seconds()

	time.Sleep(spec.Warmup)
	var before, after counters
	ctl.quiesce(len(clients), func() {
		before = readCounters(st, clients)
		ctl.recording.Store(true)
	})
	if tr == nil {
		time.Sleep(spec.Duration)
	} else {
		// Tracing off, on, off, on: both sides of the overhead ratio
		// see the same process, connection and minute of the box.
		for slice := 0; slice < 4; slice++ {
			ctl.quiesce(len(clients), func() { tr.on.Store(slice%2 == 1) })
			time.Sleep(spec.Duration / 4)
		}
	}
	ctl.quiesce(len(clients), func() {
		end := time.Now()
		ctl.recording.Store(false)
		if tr != nil {
			tr.on.Store(false)
		}
		after = readCounters(st, clients)
		after.at = end
	})
	ctl.stop.Store(true)
	done.Wait()
	res.Values["host.calib_us"] = hostCalibUS()

	var lat, latOff []float64
	var sum timingSum
	for _, c := range clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		res.Ops += c.ops
		for _, ns := range c.lat {
			lat = append(lat, float64(ns)/1e3)
		}
		for _, ns := range c.latOff {
			latOff = append(latOff, float64(ns)/1e3)
		}
		sum.add(c.timing.connect, c.timing.tls, c.timing.roundTrip, c.timing.total, c.timing.n)
		if c.lastErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: last error: %v\n", spec.Workload, c.lastErr)
		}
	}
	if len(lat) == 0 {
		res.invalidf("no verified answer in the measured window (%d attempted, %d failed)", res.Attempted, res.Failed)
		return res, nil
	}
	res.setCommon(before, after, lat)
	res.setBoundary(before, after)
	res.checkServing(clients)
	if tr != nil {
		res.Values["client.p99_us"] = quantile(latOff, 0.99)
		res.Values["trace.overhead_ratio"] = ratio(quantile(lat, 0.5), quantile(latOff, 0.5))
		if err := res.setTrace(spec, tr, sum); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setBoundary derives the boundary counts from the layers' Stats()
// deltas. No wrapper sits in a measured round, so upstream queries are
// counted by what they leave behind: one accepted cache Put each.
func (r *segResult) setBoundary(a, b counters) {
	v, ops := r.Values, float64(r.Ops)
	hits := float64(b.cache.Hits - a.cache.Hits)
	misses := float64(b.cache.Misses - a.cache.Misses)
	puts := float64(b.cache.Puts - a.cache.Puts)
	v["cache.hit_ratio"] = ratio(hits, hits+misses)
	v["cache.puts_per_query"] = puts / ops
	v["cache.evictions_per_query"] = float64(b.cache.Evictions-a.cache.Evictions) / ops
	v["cache.shared_flights_per_query"] = float64(b.cache.SharedFlights-a.cache.SharedFlights) / ops
	v["recursive.upstream_per_query"] = puts / ops
	v["dohclient.reused_ratio"] = ratio(float64(b.doh.Reused-a.doh.Reused), float64(b.doh.Exchanges-a.doh.Exchanges))
	v["dohclient.http_errors"] = float64(b.doh.HTTPErrors - a.doh.HTTPErrors)
	v["dohserver.queries_per_query"] = float64(b.dohQueries-a.dohQueries) / ops
	v["smart.race_ratio"] = ratio(float64(b.smart.Races-a.smart.Races), float64(b.smart.Queries-a.smart.Queries))
}

// checkServing applies the per-workload validity checks: a run whose
// traffic did not take the path the workload is named for measures
// something else, and must not pass.
func (r *segResult) checkServing(clients []*loadClient) {
	v := r.Values
	within := func(name string, lo, hi float64) {
		if x := v[name]; x < lo || x > hi {
			r.invalidf("%s = %.4f, want within [%g, %g]", name, x, lo, hi)
		}
	}
	if r.Failed > 0 {
		r.invalidf("%d of %d queries failed or answered wrong", r.Failed, r.Attempted)
	}
	switch r.Workload {
	case wDoHWarm, wDoTWarm, wSmartWarm:
		within("cache.hit_ratio", 0.999, 1)
		within("recursive.upstream_per_query", 0, 0.001)
	case wDoHMiss, wDo53Miss:
		within("recursive.upstream_per_query", 0.999, 1.001)
	}
	switch r.Workload {
	case wDoHWarm, wDoHMiss:
		within("dohclient.reused_ratio", 0.999, 1)
	case wDoHCold:
		within("dohclient.reused_ratio", 0, 0)
	case wSmartWarm:
		within("smart.race_ratio", 0, 0.001)
		for _, c := range clients {
			wins, switches := c.smart.WinsByKind(), c.smart.Stats().Switches
			if wins[resolver.DoT] == 0 || wins[resolver.DoH] != 0 || switches != 0 {
				r.invalidf("smart race wins %v and %d switches, want DoT the winner throughout", wins, switches)
			}
		}
	}
}
