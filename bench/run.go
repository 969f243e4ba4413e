package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation of the harness.
type runConfig struct {
	Workloads []string
	Seed      int64
	Rounds    int
	Segment   time.Duration
	Warmup    time.Duration
	// Measure and Trace select the phases: the untraced rounds that
	// give the end-to-end metrics, the traced ladder that gives the
	// per-layer ones.
	Measure, Trace bool
	TraceOut       string

	// segment runs one segment; the command spawns a fresh process for
	// each, tests run them in-process.
	segment func(segSpec) (*segResult, error)
	// stack and stripe shrink the work for the smoke test.
	stack  stackConfig
	stripe bool
	log    io.Writer
}

// metricValue is one metric of one workload: the median over rounds,
// with the rounds' own spread beside it.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds,omitempty"`
}

func summarize(unit string, rounds []float64) metricValue {
	m := metricValue{
		Value: quantile(rounds, 0.5), Unit: unit,
		Min: quantile(rounds, 0), Max: quantile(rounds, 1),
	}
	if len(rounds) > 1 {
		m.Rounds = rounds
	}
	return m
}

// workloadReport is everything the harness learned about one workload.
type workloadReport struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Invalid   []string `json:"invalid,omitempty"`
	// CSVHash is the campaign's export hash, identical in every round.
	CSVHash string `json:"csv_hash,omitempty"`
	// HostCalibUS is the fixed CPU kernel timed at the start of every
	// round: it moves when the box does, not when the program does.
	HostCalibUS metricValue            `json:"host_calib_us"`
	EndToEnd    map[string]metricValue `json:"end_to_end,omitempty"`
	// PerLayer holds the metrics measured on this workload's own
	// segments; the rest of the per-layer catalogue is report.Ladder.
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
}

func (w *workloadReport) absorb(r *segResult) {
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	w.Invalid = append(w.Invalid, r.Invalid...)
}

// report is the result file -o writes and -check reads.
type report struct {
	Generated  string           `json:"generated"`
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Network    string           `json:"network"`
	Clients    int              `json:"clients"`
	Seed       int64            `json:"seed"`
	Rounds     int              `json:"rounds"`
	SegmentS   float64          `json:"segment_s"`
	WarmupS    float64          `json:"warmup_s"`
	Workloads  []workloadReport `json:"workloads"`
	// Ladder is the traced phase: path metrics, rungs and the campaign
	// stripe, the same whatever workloads were selected.
	Ladder map[string]metricValue `json:"ladder,omitempty"`
}

func (rep *report) correct() bool {
	for _, w := range rep.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// spawnSegment runs spec in a fresh child process — a fresh heap, no
// state leaking from the previous workload — and waits for it to end.
func spawnSegment(spec segSpec) (*segResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-segment-spec", string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("segment %s round %d: %w", spec.Workload, spec.Round, err)
	}
	var res segResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return nil, fmt.Errorf("segment %s round %d: bad result %q: %w", spec.Workload, spec.Round, out, err)
	}
	return &res, nil
}

// run executes the selected phases and assembles the report.
func run(cfg runConfig) (*report, error) {
	rep := &report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Network: "loopback sockets on 127.0.0.1, not a real link",
		Clients: loadClients, Seed: cfg.Seed, Rounds: cfg.Rounds,
		SegmentS: cfg.Segment.Seconds(), WarmupS: cfg.Warmup.Seconds(),
	}
	spec := func(workload string, round int) segSpec {
		return segSpec{
			Workload: workload, Seed: cfg.Seed, Round: round, Clients: loadClients,
			Warmup: cfg.Warmup, Duration: cfg.Segment,
			Stripe: cfg.stripe, Spawned: time.Now(), stack: cfg.stack,
		}
	}

	// Measured rounds, interleaved: round r runs every workload once
	// before round r+1 starts, so a slow minute on the box lands on
	// every workload, not on one. A traced-only run still needs one
	// round for the boundary counts.
	rounds := cfg.Rounds
	if !cfg.Measure {
		rounds = 1
	}
	measured := make(map[string][]*segResult)
	for r := 0; r < rounds; r++ {
		for _, w := range cfg.Workloads {
			res, err := cfg.segment(spec(w, r))
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(cfg.log, "bench: %-10s round %d/%d: %.0f ops/s, p50 %.1f us\n",
				w, r+1, rounds, res.Values["ops_per_s"], res.Values["workload.p50_us"])
			measured[w] = append(measured[w], res)
		}
	}

	var ladderRuns []*segResult
	if cfg.Trace {
		var err error
		if rep.Ladder, ladderRuns, err = runLadder(cfg, spec); err != nil {
			return nil, err
		}
	}

	for _, w := range cfg.Workloads {
		wr := workloadReport{Workload: w}
		collect := func(defs []metricDef) map[string]metricValue {
			out := make(map[string]metricValue, len(defs))
			for _, d := range defs {
				var rounds []float64
				for _, res := range measured[w] {
					rounds = append(rounds, res.Values[d.Name])
				}
				out[d.Name] = summarize(d.Unit, rounds)
			}
			return out
		}
		for _, res := range measured[w] {
			wr.absorb(res)
			switch {
			case wr.CSVHash == "":
				wr.CSVHash = res.CSVHash
			case res.CSVHash != wr.CSVHash:
				wr.Invalid = append(wr.Invalid, fmt.Sprintf("%s: CSV hash differs between rounds: %s, %s", w, wr.CSVHash, res.CSVHash))
			}
		}
		wr.HostCalibUS = collect([]metricDef{{Name: "host.calib_us", Unit: "us"}})["host.calib_us"]
		if cfg.Measure {
			wr.EndToEnd = collect(endToEnd)
		}
		if cfg.Trace {
			wr.PerLayer = collect(boundaryMetrics)
			// A failure anywhere in the ladder fails every workload's
			// traced result: each of them reports the ladder's metrics.
			for _, res := range ladderRuns {
				wr.absorb(res)
			}
		}
		wr.Correct = wr.Failed == 0 && wr.Attempted > 0 && len(wr.Invalid) == 0
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// runLadder is the traced phase: the isolated rungs; then every
// serving path with one client, so at most one query is in flight and
// every span belongs to it, the wrappers alternately off and on; then
// one campaign stripe. The result does not depend on which workloads were
// selected: every per-layer metric is measured on every traced run.
func runLadder(cfg runConfig, spec func(string, int) segSpec) (map[string]metricValue, []*segResult, error) {
	out := make(map[string]metricValue)
	var runs []*segResult
	one := func(s segSpec) (*segResult, error) {
		res, err := cfg.segment(s)
		if err != nil {
			return nil, err
		}
		runs = append(runs, res)
		return res, nil
	}
	set := func(d metricDef, v float64) { out[d.Name] = summarize(d.Unit, []float64{v}) }

	rungSpec := spec(rungsWorkload, cfg.Rounds)
	rungSpec.Duration = cfg.Segment / 40
	rungs, err := one(rungSpec)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range rungMetrics {
		set(d, rungs.Values[d.Name])
	}

	for _, path := range servingPaths {
		s := spec(path, cfg.Rounds)
		s.Clients, s.Duration, s.Trace, s.TraceOut = 1, cfg.Segment/2, true, cfg.TraceOut
		traced, err := one(s)
		if err != nil {
			return nil, nil, err
		}
		v := traced.Values
		fmt.Fprintf(cfg.log, "bench: %-10s traced: exchange %.1f us, coverage %.3f, overhead %.3f\n",
			path, v["client.exchange_us"], v["trace.coverage_ratio"], v["trace.overhead_ratio"])
		v["rungs.explained_ratio"] = ratio(explainedNS(path, rungs.Values)/1e3, v["client.exchange_us"])
		for _, d := range concat(commonPathMetrics, pathMetrics[path]) {
			val := v[d.Name]
			d.Name = path + "." + d.Name
			set(d, val)
		}
	}

	stripe := spec(wCampaign, cfg.Rounds)
	stripe.Stripe, stripe.Duration = true, 0
	camp, err := one(stripe)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range campaignLadder {
		set(d, camp.Values[d.Name])
	}
	return out, runs, nil
}

// explainedNS sums the isolated rung costs of the repository layers a
// query crosses on path: the share of the exchange spent in this
// repo's code, the rest being stdlib, kernel and loopback.
func explainedNS(path string, rung map[string]float64) float64 {
	client := rung["dnswire.pack_query_ns"] + rung["dnswire.unpack_response_ns"]
	serverCodec := rung["dnswire.unpack_query_ns"] + rung["dnswire.pack_response_ns"]
	// A miss goes on through the policy stack to the Do53 transport
	// and the authoritative server, each with its own codec work.
	missExtra := rung["recursive.resolve_miss_ns"] - rung["recursive.resolve_hit_ns"] +
		rung["resolver.policy_stack_ns"] + client + serverCodec + rung["authserver.answer_ns"]
	switch path {
	case wDoHWarm, wDoHCold:
		return client + rung["dohserver.servehttp_get_ns"]
	case wDoHMiss:
		return client + rung["dohserver.servehttp_get_ns"] + missExtra
	case wDoTWarm:
		return client + serverCodec + rung["recursive.resolve_hit_ns"]
	case wDo53Miss:
		return client + serverCodec + rung["recursive.resolve_hit_ns"] + missExtra
	case wSmartWarm:
		return client + serverCodec + rung["recursive.resolve_hit_ns"] + rung["smart.remembered_ns"]
	}
	return 0
}

// gitCommit names the measured commit when the checkout is a git
// repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// contractLine is the one-line JSON result the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func contractLine(rep *report, w workloadReport, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	add := func(src map[string]metricValue) {
		for name, m := range src {
			metrics[name] = value{m.Value, m.Unit}
		}
	}
	if traced {
		add(w.PerLayer)
		add(rep.Ladder)
	} else {
		add(w.EndToEnd)
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics})
}
