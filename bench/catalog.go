package main

// The catalogue is the one place that names what the harness measures.
// BENCHMARK.json at the repository root declares the same workloads
// and metrics for the driver; TestCatalogueMatchesBenchmarkJSON keeps
// the two in step, so -check can take its bounds from here.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef declares one metric. Bound is the share of the baseline
// median by which an end-to-end metric may get worse before -check
// (and the driver) call it a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// Workload names. The six serving workloads are also the traced paths.
const (
	wDoHWarm   = "doh_warm"
	wDoHCold   = "doh_cold"
	wDoHMiss   = "doh_miss"
	wDoTWarm   = "dot_warm"
	wDo53Miss  = "do53_miss"
	wSmartWarm = "smart_warm"
	wCampaign  = "campaign"
)

var workloads = []workloadDef{
	{wDoHWarm, "DoH GET on reused TLS connections, hot names, all cache hits: the paper's t_DoHR; net/http+TLS front is ~all of the time"},
	{wDoHCold, "DoH with a fresh TCP+TLS 1.3 handshake per query: the paper's t_DoH; only handshake work moves it, reuse-path work must not"},
	{wDoHMiss, "DoH on reused connections, unique names: every query is forwarded to authdns, inserted and evicts; minus doh_warm is the back half"},
	{wDoTWarm, "hot-name hits over DoT on the serve stream path: bypasses net/http, so cache-hit, dnswire and serve changes show largest here"},
	{wDo53Miss, "unique names over UDP through recursor, policy stack and authserver: the back half is ~2/3 of the time; HTTP/TLS changes predict no movement"},
	{wSmartWarm, "smart racing resolver over [DoT, DoH] in its remembered-winner steady state: tracks dot_warm, the gap is smart's live-path overhead"},
	{wCampaign, "the paper's study: full-world simulated campaign over five strategies plus CSV export, no sockets; guards the science side"},
}

// servingPaths lists the workloads that drive the live loopback stack,
// in the order the traced phase walks them.
var servingPaths = []string{wDoHWarm, wDoHCold, wDoHMiss, wDoTWarm, wDo53Miss, wSmartWarm}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them (an op is one verified answer, or one kept
// client on campaign). The driver gates later changes on these, so only
// metrics that repeat on a shared 2-vCPU box are here. Latency
// percentiles and CPU per op did not (bench/README.md, "Noise") and are
// the per-layer metrics workload.p50_us, .p90_us, .p99_us and
// .cpu_us_per_op; in a closed loop of fixed size the mean latency is
// the client count over ops_per_s anyway. The time bounds are the
// largest the contract allows; the counts repeat far inside theirs.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"allocs_per_op", "count", lower, 0.03},
	{"alloc_bytes_per_op", "B", lower, 0.15},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// boundaryMetrics are read over one measured segment of the selected
// workload, under its full load: the times too noisy to gate on, and
// counts from the layers' public Stats().
var boundaryMetrics = []metricDef{
	{"workload.p50_us", "us", lower, 0},
	{"workload.p90_us", "us", lower, 0},
	{"workload.p99_us", "us", lower, 0},
	{"workload.cpu_us_per_op", "us", lower, 0},
	{"cache.hit_ratio", "ratio", higher, 0},
	{"cache.puts_per_query", "1/query", lower, 0},
	{"cache.evictions_per_query", "1/query", lower, 0},
	{"cache.shared_flights_per_query", "1/query", lower, 0},
	{"recursive.upstream_per_query", "1/query", lower, 0},
	{"dohclient.reused_ratio", "ratio", higher, 0},
	{"dohclient.http_errors", "count", lower, 0},
	{"dohserver.queries_per_query", "1/query", lower, 0},
	{"smart.race_ratio", "ratio", lower, 0},
	{"runtime.gc_cycles_per_kop", "1/kop", lower, 0},
	{"runtime.gc_pause_us_per_kop", "us/kop", lower, 0},
	{"runtime.heap_live_mb", "MB", lower, 0},
	{"host.calib_us", "us", lower, 0},
	{"host.steal_ratio", "ratio", lower, 0},
}

// campaignLadder is measured on one 14-country stripe in every traced
// run, whatever the selected workload.
var campaignLadder = []metricDef{
	{"campaign.queries_per_client", "1/client", lower, 0},
	{"campaign.discard_ratio", "ratio", lower, 0},
	{"campaign.cpu_s_per_kclient", "s/kclient", lower, 0},
}

// pathMetrics are the traced-phase metrics of one serving path, named
// "<path>.<metric>" in the output. Every path has the common ones; the
// rest follow the seams that path crosses.
var commonPathMetrics = []metricDef{
	{"client.exchange_us", "us", lower, 0},
	{"client.p99_us", "us", lower, 0},
	{"trace.coverage_ratio", "ratio", higher, 0},
	{"trace.overhead_ratio", "ratio", lower, 0},
	{"rungs.explained_ratio", "ratio", higher, 0},
}

var (
	dohFrontMetrics = []metricDef{
		{"dohclient.self_us", "us", lower, 0},
		{"dohclient.round_trip_us", "us", lower, 0},
		{"nethttp_tls.gap_us", "us", lower, 0},
		{"dohserver.handle_us", "us", lower, 0},
	}
	handshakeMetrics = []metricDef{
		{"dohclient.connect_us", "us", lower, 0},
		{"dohclient.tls_handshake_us", "us", lower, 0},
	}
	forwardMetrics = []metricDef{
		{"recursive.forward_us", "us", lower, 0},
		{"resolver.policy_self_us", "us", lower, 0},
		{"upstream.exchange_us", "us", lower, 0},
	}
)

var pathMetrics = map[string][]metricDef{
	wDoHWarm: dohFrontMetrics,
	wDoHCold: concat(dohFrontMetrics, handshakeMetrics),
	wDoHMiss: concat(dohFrontMetrics, []metricDef{{"dohserver.self_us", "us", lower, 0}}, forwardMetrics),
	wDoTWarm: {
		{"dot.self_us", "us", lower, 0},
		{"dot.round_trip_us", "us", lower, 0},
		{"serve.stream_gap_us", "us", lower, 0},
		{"recursive.resolve_us", "us", lower, 0},
	},
	wDo53Miss: concat([]metricDef{
		{"dnsclient.self_us", "us", lower, 0},
		{"dnsclient.round_trip_us", "us", lower, 0},
		{"serve.packet_gap_us", "us", lower, 0},
	}, forwardMetrics),
	wSmartWarm: {
		{"smart.self_us", "us", lower, 0},
		{"smart.candidate_us", "us", lower, 0},
	},
}

// rungMetrics time each layer's public entry point alone, on the
// workloads' own messages.
var rungMetrics = []metricDef{
	{"dnswire.pack_query_ns", "ns", lower, 0},
	{"dnswire.unpack_query_ns", "ns", lower, 0},
	{"dnswire.pack_response_ns", "ns", lower, 0},
	{"dnswire.unpack_response_ns", "ns", lower, 0},
	{"dnswire.allocs_per_roundtrip", "count", lower, 0},
	{"cache.lookup_hit_ns", "ns", lower, 0},
	{"cache.lookup_miss_ns", "ns", lower, 0},
	{"cache.lookup_stale_ns", "ns", lower, 0},
	{"cache.put_evict_ns", "ns", lower, 0},
	{"cache.lookup_hit_allocs", "count", lower, 0},
	{"recursive.resolve_hit_ns", "ns", lower, 0},
	{"recursive.resolve_miss_ns", "ns", lower, 0},
	{"recursive.resolve_hit_allocs", "count", lower, 0},
	{"dohserver.servehttp_get_ns", "ns", lower, 0},
	{"dohserver.servehttp_post_ns", "ns", lower, 0},
	{"dohserver.servehttp_allocs", "count", lower, 0},
	{"authserver.answer_ns", "ns", lower, 0},
	{"authserver.answer_allocs", "count", lower, 0},
	{"resolver.mw_retry_ns", "ns", lower, 0},
	{"resolver.mw_timeout_ns", "ns", lower, 0},
	{"resolver.mw_breaker_ns", "ns", lower, 0},
	{"resolver.mw_metrics_ns", "ns", lower, 0},
	{"resolver.mw_cache_hit_ns", "ns", lower, 0},
	{"resolver.policy_stack_ns", "ns", lower, 0},
	{"resolver.policy_stack_allocs", "count", lower, 0},
	{"smart.remembered_ns", "ns", lower, 0},
	{"smart.race_ns", "ns", lower, 0},
	{"sketch.observe_ns", "ns", lower, 0},
	{"sketch.merge_ns", "ns", lower, 0},
	{"obs.histogram_observe_ns", "ns", lower, 0},
	{"core.estimate_doh_ns", "ns", lower, 0},
	{"proxynet.measure_doh_us", "us", lower, 0},
	{"campaign.write_csv_ms", "ms", lower, 0},
	{"analysis.new_ms", "ms", lower, 0},
}

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// pathMetricDefs returns path's traced metrics under their output
// names.
func pathMetricDefs(path string) []metricDef {
	var out []metricDef
	for _, m := range concat(commonPathMetrics, pathMetrics[path]) {
		m.Name = path + "." + m.Name
		out = append(out, m)
	}
	return out
}

// perLayer is the full per-layer catalogue: what a -trace 1 run prints.
func perLayer() []metricDef {
	out := concat(boundaryMetrics, campaignLadder)
	for _, p := range servingPaths {
		out = append(out, pathMetricDefs(p)...)
	}
	return append(out, rungMetrics...)
}
