// Command bench is the repository's benchmark: one harness for the
// live DNS stack (client -> DoH/DoT/Do53 front -> cache -> forwarder ->
// authoritative server, on real loopback sockets) and for the
// simulated measurement campaign. BENCHMARK.json at the repository
// root declares its workloads and metrics; bench/README.md says how to
// run and read it.
//
// Usage:
//
//	go run ./bench                      # every workload, both phases
//	go run ./bench -workload doh_warm   # one workload
//	go run ./bench -o set1.json         # keep the result file
//	go run ./bench -check set1.json set2.json
//	go run ./bench -list
//
// The driver's form, one JSON object on the last line of stdout:
//
//	go run ./bench --workload doh_warm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"
)

const defaultRounds = 5

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all; see -list)")
		seed     = flag.Int64("seed", 1, "workload seed: name permutation, unique-name prefix, campaign seed 2020+seed")
		seconds  = flag.Float64("seconds", 10, "measured time per workload, split over the rounds")
		rounds   = flag.Int("rounds", defaultRounds, "segments per workload; a metric's value is the median over them")
		segment  = flag.Duration("segment", 0, "length of one measured segment (default: -seconds / -rounds)")
		warmup   = flag.Duration("warmup", 300*time.Millisecond, "untimed settling time before each measured segment")
		trace    = flag.String("trace", "both", "phases: 0 = measured rounds (end-to-end metrics), 1 = traced ladder (per-layer metrics), both")
		out      = flag.String("o", "", "write the result file (JSON) here")
		traceOut = flag.String("trace-out", "", "write the traced phase's spans (JSON lines) here")
		list     = flag.Bool("list", false, "list every workload and metric with unit, direction and bound")
		check    = flag.Bool("check", false, "compare two result files: -check A.json B.json")
		child    = flag.String("segment-spec", "", "internal: run one segment in this process and print its result")
	)
	flag.Parse()

	switch {
	case *child != "":
		os.Exit(segmentMain(*child))
	case *list:
		printCatalogue(os.Stdout)
		return
	case *check:
		if flag.NArg() != 2 {
			fatalf("-check wants two result files, got %d", flag.NArg())
		}
		os.Exit(checkMain(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	cfg := runConfig{
		Workloads: workloadNames(), Seed: *seed, Rounds: *rounds,
		Segment: *segment, Warmup: *warmup, TraceOut: *traceOut,
		Measure: *trace != "1", Trace: *trace != "0",
		segment: spawnSegment, log: os.Stderr,
	}
	switch {
	case *trace != "0" && *trace != "1" && *trace != "both":
		fatalf("-trace %q: want 0, 1 or both", *trace)
	case *rounds < 1:
		fatalf("-rounds %d: want at least 1", *rounds)
	case *workload != "" && !knownWorkload(*workload):
		fatalf("unknown workload %q; known: %s", *workload, strings.Join(workloadNames(), ", "))
	}
	if *workload != "" {
		cfg.Workloads = []string{*workload}
	}
	if cfg.Segment <= 0 {
		cfg.Segment = time.Duration(*seconds / float64(*rounds) * float64(time.Second))
	}
	if cfg.TraceOut != "" {
		// Traced segments append; start from an empty file.
		if err := os.WriteFile(cfg.TraceOut, nil, 0o644); err != nil {
			fatalf("%v", err)
		}
	}

	rep, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	printReport(os.Stdout, rep)
	if *out != "" {
		rep.Commit = gitCommit()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatalf("writing %s: %v", *out, err)
		}
	}
	// One workload, one phase: the driver's form.
	if len(rep.Workloads) == 1 && cfg.Measure != cfg.Trace {
		line, err := contractLine(rep, rep.Workloads[0], cfg.Trace)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s\n", line)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// segmentMain is the child side of spawnSegment.
func segmentMain(arg string) int {
	var spec segSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: bad -segment-spec:", err)
		return 2
	}
	res, err := runSegment(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func printCatalogue(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t%s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(tw, "\nEND-TO-END METRIC\tUNIT\tBETTER\tBOUND")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(tw, "\nPER-LAYER METRIC\tUNIT\tBETTER\t")
	for _, m := range perLayer() {
		fmt.Fprintf(tw, "%s\t%s\t%s\t\n", m.Name, m.Unit, m.Better)
	}
	tw.Flush()
}

// printReport prints every metric by name and unit for every workload:
// the median over rounds with the rounds' min-max beside it.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "bench: %s, %d CPU, GOMAXPROCS %d, %s; %d closed-loop clients; seed %d, %d rounds x %.2gs (+%.2gs warm-up)\n",
		rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS, rep.Network, rep.Clients, rep.Seed, rep.Rounds, rep.SegmentS, rep.WarmupS)
	for _, wr := range rep.Workloads {
		status := "correct"
		if !wr.Correct {
			status = "INCORRECT"
		}
		fmt.Fprintf(w, "\n== %s: %s, %d attempted, %d failed", wr.Workload, status, wr.Attempted, wr.Failed)
		if wr.CSVHash != "" {
			fmt.Fprintf(w, ", csv sha256 %s", wr.CSVHash)
		}
		fmt.Fprintf(w, ", host.calib_us %.0f [%.0f..%.0f]\n", wr.HostCalibUS.Value, wr.HostCalibUS.Min, wr.HostCalibUS.Max)
		for _, msg := range wr.Invalid {
			fmt.Fprintf(w, "   invalid: %s\n", msg)
		}
		printMetrics(w, endToEnd, wr.EndToEnd)
		printMetrics(w, boundaryMetrics, wr.PerLayer)
	}
	if rep.Ladder != nil {
		fmt.Fprintln(w, "\n== traced ladder: one client per serving path, the isolated rungs, one campaign stripe")
		printMetrics(w, perLayer(), rep.Ladder)
	}
	p50 := make(map[string]float64)
	for _, wr := range rep.Workloads {
		if m, ok := wr.PerLayer["workload.p50_us"]; ok {
			p50[wr.Workload] = m.Value
		}
	}
	if smart, dot := p50[wSmartWarm], p50[wDoTWarm]; smart > 0 && dot > 0 {
		fmt.Fprintf(w, "\nsmart live-path overhead: smart_warm - dot_warm workload.p50_us = %.2f us\n", smart-dot)
	}
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]metricValue) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "   %s\t%.6g\t%s\t", d.Name, v.Value, v.Unit)
		if len(v.Rounds) > 1 {
			fmt.Fprintf(tw, "[%.6g..%.6g]", v.Min, v.Max)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
