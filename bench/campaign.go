package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/resolver"
)

// campaignConfig is the paper's study with every strategy column on.
// -seed 1 is campaign seed 2021, the paper's year; other seeds shift
// it. A stripe is 14 of the world's 224 countries.
func campaignConfig(seed int64, stripe bool) (campaign.Config, error) {
	cfg := campaign.DefaultConfig(2020 + seed)
	cfg.Transports = []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT, resolver.DoQ, resolver.Smart}
	cfg.Parallel = 2
	if stripe {
		countries, err := campaign.ShardCountries(nil, 0, 16)
		if err != nil {
			return cfg, err
		}
		cfg.Countries = countries
	}
	return cfg, nil
}

// exportHash writes the dataset's main and smart CSV tables into a
// SHA-256: the study's output, reduced to something two runs can be
// compared by.
func exportHash(ds *campaign.Dataset) (string, error) {
	h := sha256.New()
	if err := ds.WriteCSV(h); err != nil {
		return "", err
	}
	if err := ds.WriteSmartCSV(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runCampaign measures the science side: campaign.Run passes over the
// world (no socket, no serving layer) until the segment's time is up,
// each followed by the CSV exports. An op is one kept client.
func runCampaign(spec segSpec) (*segResult, error) {
	res := &segResult{Workload: spec.Workload, Round: spec.Round, Values: map[string]float64{}}

	// Set-up is one stripe, fixed work that pages in the world tables
	// and warms the simulator's code paths.
	warm, err := campaignConfig(spec.Seed, true)
	if err != nil {
		return nil, err
	}
	if _, err := campaign.Run(warm); err != nil {
		return nil, fmt.Errorf("campaign warm-up: %w", err)
	}
	res.Values["setup_s"] = time.Since(spec.Spawned).Seconds()

	cfg, err := campaignConfig(spec.Seed, spec.Stripe)
	if err != nil {
		return nil, err
	}
	var (
		perClient        []float64 // pipeline µs per kept client, one per pass
		runWall          time.Duration
		queries, discard int
	)
	before := readCounters(nil, nil)
	for pass := 0; pass == 0 || time.Since(before.at) < spec.Duration; pass++ {
		t0 := time.Now()
		ds, err := campaign.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		ran := time.Since(t0)
		hash, err := exportHash(ds)
		if err != nil {
			return nil, fmt.Errorf("campaign export: %w", err)
		}
		res.Attempted++
		switch {
		case ds.Partial || ds.KeptClients == 0:
			res.Failed++
			res.invalidf("pass %d: partial=%v, %d kept clients", pass, ds.Partial, ds.KeptClients)
			continue
		case res.CSVHash != "" && hash != res.CSVHash:
			res.Failed++
			res.invalidf("pass %d: CSV hash %s differs from %s", pass, hash, res.CSVHash)
		}
		res.CSVHash = hash
		res.Ops += int64(ds.KeptClients)
		runWall += ran
		perClient = append(perClient, float64(time.Since(t0))/1e3/float64(ds.KeptClients))
		for _, ts := range ds.Transports {
			queries += ts.Queries
			discard += ts.Discards
		}
	}
	after := readCounters(nil, nil)
	res.Values["host.calib_us"] = hostCalibUS()
	if res.Ops == 0 {
		return res, nil
	}
	res.setCommon(before, after, perClient)
	// Throughput is over campaign.Run alone; the per-client latency
	// above also carries the export.
	res.Values["ops_per_s"] = float64(res.Ops) / runWall.Seconds()
	res.Values["campaign.queries_per_client"] = float64(queries) / float64(res.Ops)
	res.Values["campaign.discard_ratio"] = ratio(float64(discard), float64(queries))
	res.Values["campaign.cpu_s_per_kclient"] = (after.cpu - before.cpu).Seconds() / float64(res.Ops) * 1e3
	return res, nil
}
