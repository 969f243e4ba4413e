// Command worldstudy runs the full measurement campaign on the
// simulated proxy network and regenerates every table and figure of
// the paper's evaluation.
//
// Usage:
//
//	worldstudy                       # full-scale campaign (~21.5k clients)
//	worldstudy -scale 0.25           # quarter-scale, faster
//	worldstudy -seed 7 -only "Table 4,Figure 6"
//	worldstudy -extensions           # + DoT, cache study, page loads, TLS 1.2, regions
//	worldstudy -export ./release     # write dataset.csv + atlas_do53.csv
//	worldstudy -import ./release     # analyze a published dataset
//	worldstudy -figures ./figs       # write plottable CDF series
//	worldstudy -timeline BR          # one measurement's 22-step breakdown
//	worldstudy -resume ./ckpt        # journal countries; re-run skips completed ones
//	worldstudy -chaos-churn 0.05     # inject exit-node churn into the simulation
//	worldstudy -shard 1/3 -resume ./ckpt # measure shard 1 of 3 into the journal
//	worldstudy -resume ./ckpt -export ./all  # recombine: every country restored
//
// Sharding: `-shard i/N -resume DIR` deterministically measures the
// i-th of N country partitions into the checkpoint journal in DIR; run
// one process per shard (any machines, any order), sharing DIR or
// copying each shard's *.json records into one directory. A run without
// -shard over that directory, with the same seed, scale, transports and
// chaos flags, restores every country and measures none: its dataset,
// CSV export, report and -metrics file are the unsharded run's, byte
// for byte. Shards never coordinate while they run: overlapping specs
// each measure their own slice and write the same record for a country
// they share. See docs/scaleout.md.
//
// Import: `-import DIR` analyzes a published release instead of running
// a campaign; only Tables 1 and 2 and the extensions still simulate,
// from -seed. The flags that shape or report on a campaign (-scale,
// -transports, -resume, -shard, the -chaos-* three and -metrics) would
// be ignored, so -import refuses each, by name, with exit status 2. A
// release carries kept clients only, so the stderr summary and Table 3
// say its mismatch count is not in a CSV release instead of printing 0.
//
// SIGINT/SIGTERM interrupt the campaign cleanly: completed countries
// are flushed (and journaled under -resume) and the process exits 0.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/anycast"
	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/proxynet"
	"repro/internal/resolver"
)

func main() {
	seed := flag.Int64("seed", 2021, "campaign seed (campaigns are fully reproducible)")
	scale := flag.Float64("scale", 1.0, "client-count scale factor (2.7 gives ≈ 21.5k clients, the paper's ~22k)")
	minClients := flag.Int("min-clients", 10, "per-country inclusion bar")
	only := flag.String("only", "", "comma-separated artifact IDs to print (default: all)")
	extensions := flag.Bool("extensions", false, "also run the extension experiments (DoT, cache study, page loads, TLS 1.2)")
	export := flag.String("export", "", "directory to write the dataset release (dataset.csv, atlas_do53.csv)")
	importDir := flag.String("import", "", "directory with a dataset release to analyze instead of running a campaign")
	timeline := flag.String("timeline", "", "print one sample measurement's 22-step Figure-2 timeline for a country code and exit")
	figures := flag.String("figures", "", "directory to write plottable figure series (figure*.csv)")
	transports := flag.String("transports", "", "comma-separated transports to measure (do53,doh,dot,doq, plus the derived smart racing strategy; default: the paper's do53,doh)")
	metrics := flag.String("metrics", "", "write the campaign metrics snapshot in text exposition format (\"-\" = stderr, else a file path)")
	resume := flag.String("resume", "", "checkpoint directory: journal each completed country and skip journaled ones on re-run")
	chaosChurn := flag.Float64("chaos-churn", 0, "probability per measurement that the exit node churns mid-tunnel")
	chaosCorrupt := flag.Float64("chaos-corrupt", 0, "probability per measurement that the X-Luminati timing headers go missing or garbled")
	chaosReset := flag.Float64("chaos-reset", 0, "probability per measurement that the Super-Proxy connection resets")
	shard := flag.String("shard", "", "i/N (1-based): measure only the i-th of N country partitions into the -resume journal; a run without -shard over that journal recombines the shards")
	flag.Parse()
	wanted, err := parseOnly(*only, *extensions)
	if err == nil && *importDir != "" {
		err = importIgnores()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "worldstudy: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *timeline != "" {
		if err := printTimeline(*seed, *timeline); err != nil {
			log.Fatalf("worldstudy: %v", err)
		}
		return
	}

	cfg := campaign.DefaultConfig(*seed)
	cfg.ClientScale = *scale
	if *transports != "" {
		cfg.Transports = cfg.Transports[:0]
		for _, s := range strings.Split(*transports, ",") {
			kind, err := resolver.ParseKind(strings.TrimSpace(s))
			if err != nil {
				log.Fatalf("worldstudy: %v", err)
			}
			cfg.Transports = append(cfg.Transports, kind)
		}
	}
	cfg.CheckpointDir = *resume
	if *shard != "" {
		if *resume == "" {
			log.Fatalf("worldstudy: -shard needs -resume DIR: shards recombine only through the journal")
		}
		index, total, err := parseShard(*shard)
		if err != nil {
			log.Fatalf("worldstudy: %v", err)
		}
		cfg.Countries, err = campaign.ShardCountries(nil, index-1, total)
		if err != nil {
			log.Fatalf("worldstudy: %v", err)
		}
		fmt.Fprintf(os.Stderr, "worldstudy: shard %d/%d: %d countries\n", index, total, len(cfg.Countries))
	}
	cfg.Chaos = proxynet.Chaos{
		ExitChurnProb:     *chaosChurn,
		HeaderCorruptProb: *chaosCorrupt,
		ConnResetProb:     *chaosReset,
	}

	start := time.Now()
	var suite *experiments.Suite
	if *importDir != "" {
		// A published release: Tables 1-2 still run fresh validation
		// simulations, everything else reads its data.
		var ds *campaign.Dataset
		if ds, err = readDataset(*importDir); err == nil {
			suite = &experiments.Suite{Config: cfg, Dataset: ds, Analysis: analysis.New(ds, *minClients), MinClients: *minClients}
		}
	} else {
		suite, err = experiments.NewSuiteContext(ctx, cfg, *minClients)
	}
	interrupted := err != nil && errors.Is(err, context.Canceled) && suite != nil
	if err != nil && !interrupted {
		log.Fatalf("worldstudy: %v", err)
	}
	verb := "done"
	if interrupted {
		verb = "interrupted"
	}
	// A CSV release leaves the accounting nil (Table 3 says so too): its
	// discard count is unknown, not zero.
	mismatches := fmt.Sprintf("%d mismatches discarded", suite.Dataset.DiscardedMismatch)
	if suite.Dataset.Transports == nil {
		mismatches = "mismatches discarded: not in a CSV release"
	}
	fmt.Fprintf(os.Stderr, "worldstudy: campaign %s in %v: %d clients, %d analyzed countries, %s\n",
		verb,
		time.Since(start).Round(time.Millisecond),
		len(suite.Dataset.Clients),
		len(suite.Analysis.AnalyzedCountryCodes()),
		mismatches)
	for _, kind := range resolver.Kinds() {
		stats, ok := suite.Dataset.Transports[kind]
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr, "worldstudy: %-5s %d queries, %d ok, %d discarded, %d skipped, %d loss events, %d blocked\n",
			kind, stats.Queries, stats.Successes, stats.Discards, stats.Skipped, stats.LossEvents, stats.Blocked)
	}
	if len(suite.Dataset.SmartWins) > 0 {
		var parts []string
		for _, kind := range resolver.Kinds() {
			if n, ok := suite.Dataset.SmartWins[kind]; ok {
				parts = append(parts, fmt.Sprintf("%s=%d", kind, n))
			}
		}
		fmt.Fprintf(os.Stderr, "worldstudy: smart race wins: %s\n", strings.Join(parts, " "))
	}
	if *metrics != "" {
		if err := writeMetrics(suite.Dataset, *metrics); err != nil {
			log.Fatalf("worldstudy: metrics: %v", err)
		}
	}
	if interrupted {
		// Flush what was measured and exit cleanly. The reports and
		// figure series would silently describe a truncated world, so
		// they are skipped; the exported CSV is the partial dataset.
		if *export != "" {
			if err := exportDataset(suite.Dataset, *export); err != nil {
				log.Fatalf("worldstudy: export: %v", err)
			}
			fmt.Fprintf(os.Stderr, "worldstudy: partial dataset written to %s\n", *export)
		}
		if *resume != "" {
			fmt.Fprintf(os.Stderr, "worldstudy: re-run with -resume %s to continue this campaign\n", *resume)
		}
		return
	}

	if *figures != "" {
		if err := suite.WriteFigureData(*figures, 0); err != nil {
			log.Fatalf("worldstudy: figures: %v", err)
		}
		fmt.Fprintf(os.Stderr, "worldstudy: figure data written to %s\n", *figures)
	}
	if *export != "" {
		if err := exportDataset(suite.Dataset, *export); err != nil {
			log.Fatalf("worldstudy: export: %v", err)
		}
		fmt.Fprintf(os.Stderr, "worldstudy: dataset written to %s\n", *export)
	}

	reports, err := suite.All()
	if err != nil {
		log.Fatalf("worldstudy: %v", err)
	}
	if *extensions {
		ext, err := suite.AllExtensions()
		if err != nil {
			log.Fatalf("worldstudy: %v", err)
		}
		reports = append(reports, ext...)
	}
	for _, rep := range reports {
		if len(wanted) > 0 && !wanted[rep.ID] {
			continue
		}
		fmt.Println(rep)
	}
}

// parseOnly returns the report IDs -only names, or an error listing
// the valid IDs when one names no report that would print.
func parseOnly(only string, extensions bool) (map[string]bool, error) {
	valid := experiments.IDs(extensions)
	wanted := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.Contains(valid, id) {
			hint := ""
			if slices.Contains(experiments.IDs(true), id) {
				hint = " (it needs -extensions)"
			}
			return nil, fmt.Errorf("-only: no report %q%s; valid IDs: %s", id, hint, strings.Join(valid, ", "))
		}
		wanted[id] = true
	}
	return wanted, nil
}

// campaignOnly is the flags that shape a campaign or report on one, and
// that a -import run would therefore ignore: a release is a campaign's
// CSV output, with no journal, no accounting and no metrics snapshot.
// -seed is not one of them: the fresh validation runs of Tables 1 and 2
// and the extensions draw from it.
var campaignOnly = []string{"scale", "transports", "resume", "shard", "chaos-churn", "chaos-corrupt", "chaos-reset", "metrics"}

// importIgnores returns an error naming every set flag a -import run
// would ignore.
func importIgnores() error {
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(campaignOnly, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) == 0 {
		return nil
	}
	return fmt.Errorf("-import analyzes a release and would ignore %s", strings.Join(set, ", "))
}

// writeMetrics dumps the campaign's observability snapshot ("-" means
// stderr, anything else a file path, written atomically).
func writeMetrics(ds *campaign.Dataset, dest string) error {
	if dest == "-" {
		return ds.Obs.WriteText(os.Stderr)
	}
	var buf bytes.Buffer
	if err := ds.Obs.WriteText(&buf); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(dest, buf.Bytes(), 0o644)
}

// exportDataset writes the release files the paper publishes. Writes
// are atomic (temp file + rename) so an interrupt mid-export can never
// leave a truncated dataset.csv behind — a consumer sees the previous
// export or the complete new one.
func exportDataset(ds *campaign.Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		return err
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(dir, "dataset.csv"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	buf.Reset()
	if err := ds.WriteAtlasCSV(&buf); err != nil {
		return err
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(dir, "atlas_do53.csv"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	// The smart racing strategy is a side table (smart.csv): the main
	// dataset.csv column set is pinned by the golden tests, and the
	// derived fifth column only exists when the campaign measured it.
	if ds.SmartWins == nil {
		return nil
	}
	buf.Reset()
	if err := ds.WriteSmartCSV(&buf); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(filepath.Join(dir, "smart.csv"), buf.Bytes(), 0o644)
}

// readDataset loads one dataset release directory.
func readDataset(dir string) (*campaign.Dataset, error) {
	main, err := os.Open(filepath.Join(dir, "dataset.csv"))
	if err != nil {
		return nil, err
	}
	defer main.Close()
	var atlas io.Reader
	if f, err := os.Open(filepath.Join(dir, "atlas_do53.csv")); err == nil {
		defer f.Close()
		atlas = f
	}
	ds, err := campaign.ReadCSV(main, atlas)
	if err != nil {
		return nil, err
	}
	if f, err := os.Open(filepath.Join(dir, "smart.csv")); err == nil {
		defer f.Close()
		if err := ds.ReadSmartCSV(f); err != nil {
			return nil, fmt.Errorf("smart.csv: %w", err)
		}
	}
	return ds, nil
}

// parseShard parses "i/N" with 1 <= i <= N.
func parseShard(s string) (index, total int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &index, &total); err != nil {
		return 0, 0, fmt.Errorf("-shard wants i/N (e.g. 2/3), got %q", s)
	}
	if total < 1 || index < 1 || index > total {
		return 0, 0, fmt.Errorf("-shard %q out of range: want 1 <= i <= N", s)
	}
	return index, total, nil
}

// printTimeline runs one DoH measurement in the given country and
// dumps the true per-step durations next to the estimator's view.
func printTimeline(seed int64, country string) error {
	sim := proxynet.NewSim(seed)
	node, err := sim.SelectExitNode(strings.ToUpper(country))
	if err != nil {
		return err
	}
	obs, gt := sim.MeasureDoH(node, anycast.Cloudflare, "timeline.a.com.")
	fmt.Printf("exit node %s (PoP %s, %.0f km away)\n\n", node.ID, gt.PoP.ID, gt.PoPDistanceKm)
	for i := 1; i <= 22; i++ {
		fmt.Printf("  t%-2d %-42s %8.1f ms\n", i, proxynet.StepLabels[i],
			float64(gt.Steps[i])/float64(time.Millisecond))
	}
	msf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Printf("\nclient observables: T_B-T_A=%.1f ms  T_D-T_C=%.1f ms  DNS=%.1f  Connect=%.1f  t_BD=%.1f\n",
		msf(obs.TB-obs.TA), msf(obs.TD-obs.TC), msf(obs.Tun.DNS), msf(obs.Tun.Connect), msf(obs.Proxy.Total()))
	est, err := core.EstimateDoH(obs)
	if err != nil {
		return err
	}
	fmt.Printf("\n             %10s %10s\n", "estimated", "true")
	fmt.Printf("  t_DoH      %8.1f ms %8.1f ms   (Equation 7)\n", msf(est.TDoH), msf(gt.TDoH))
	fmt.Printf("  t_DoHR     %8.1f ms %8.1f ms   (Equation 8)\n", msf(est.TDoHR), msf(gt.TDoHR))
	fmt.Printf("  client RTT %8.1f ms             (Equation 6)\n", msf(est.RTT))
	return nil
}
