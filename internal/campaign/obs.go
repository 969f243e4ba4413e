package campaign

import (
	"sync"
	"time"

	"repro/internal/anycast"
	"repro/internal/obs"
	"repro/internal/proxynet"
	"repro/internal/sketch"
)

// Observability aggregation: Run assembles the campaign's registry
// view after the workers finish. Per-country simulators keep private
// counters while measuring (countryRun.settle attributes loss events
// to individual runs by sequential deltas, which a shared registry
// would break under parallel workers), so everything here is fed from
// the already-deterministic Dataset and per-country accounting. The
// snapshot is therefore identical for any Config.Parallel.
//
// Latency histograms route through internal/sketch: each finished
// country's clients are folded into the run's one keyed sketch set (the
// keys ARE the obs metric names), Dataset.Sketch, and the registry
// histograms — registered on the sketch's canonical bucket layout —
// absorb its buckets verbatim. Every accumulator is an integer sum, min
// or max, so the order countries fold in cannot show. The same
// pipeline therefore serves a single process, the DiscardClients
// constant-memory mode, and N merged shards, all with identical
// histogram snapshots.

// msDuration converts a dataset's millisecond float back into a
// duration for histogram observation.
func msDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// sketchClients reduces client records to a fresh set of the
// campaign's mergeable latency sketches.
func sketchClients(clients []ClientRecord) *sketch.Set {
	return foldClients(sketch.NewSet(), clients)
}

// foldClients observes client records into s and returns it:
//
//	campaign_doh_<provider>_ms    first-query DoH estimate per provider
//	campaign_dohr_<provider>_ms   reused-connection estimate
//	campaign_country_<code>_doh_ms  all providers' DoH, per country
//	campaign_do53_ms              valid default-resolver estimates
//	campaign_<dot|doq>_<provider>_ms  unblocked extension ground truth
//	campaign_smart_<provider>_ms  derived smart-race first-query time
//	campaign_smartr_<provider>_ms derived smart steady-state time
//
// A country histogram is registered (Touch) for every client's
// country even when no DoH result is valid, so sketched and merged
// datasets expose the same metric keys a direct run would.
func foldClients(s *sketch.Set, clients []ClientRecord) *sketch.Set {
	// The country histogram is looked up once per run of same-country
	// clients, not once per observation.
	var (
		country    string
		countryDoH *sketch.Histogram

		keys      = sharedProviderKeys()
		providers = anycast.ProviderIDs()
	)
	keysFor := func(pid anycast.ProviderID) *providerKeys {
		k, _ := keys.Get(pid)
		return k
	}
	for i := range clients {
		c := &clients[i]
		if countryDoH == nil || c.CountryCode != country {
			country = c.CountryCode
			countryDoH = s.Touch("campaign_country_" + country + "_doh_ms")
		}
		for _, pid := range providers {
			res, _ := c.DoH.Get(pid)
			if !res.Valid {
				continue
			}
			k := keysFor(pid)
			d := msDuration(res.TDoHMs)
			s.Observe(k.doh, d)
			s.Observe(k.dohr, msDuration(res.TDoHRMs))
			countryDoH.Observe(d)
		}
		if c.Do53Valid {
			s.Observe("campaign_do53_ms", msDuration(c.Do53Ms))
		}
		for tr := range c.Sessions {
			for _, pid := range providers {
				res, _ := c.Sessions[tr].Get(pid)
				if !res.Valid {
					continue
				}
				s.Observe(keysFor(pid).session[tr], msDuration(res.FirstMs))
			}
		}
		for _, pid := range providers {
			res, _ := c.Smart.Get(pid)
			if !res.Valid {
				continue
			}
			k := keysFor(pid)
			s.Observe(k.smart, msDuration(res.TSmartMs))
			s.Observe(k.smartr, msDuration(res.TSmartRMs))
		}
	}
	return s
}

// providerKeys are one provider's sketch keys.
type providerKeys struct {
	doh, dohr, smart, smartr string
	session                  [len(extensions)]string
}

// sharedProviderKeys is every catalogue provider's sketch keys, built
// once per process and never written.
var sharedProviderKeys = sync.OnceValue(func() *anycast.PerProvider[*providerKeys] {
	keys := new(anycast.PerProvider[*providerKeys])
	for _, pid := range anycast.ProviderIDs() {
		key := func(kind string) string { return "campaign_" + kind + "_" + string(pid) + "_ms" }
		k := &providerKeys{doh: key("doh"), dohr: key("dohr"), smart: key("smart"), smartr: key("smartr")}
		for tr, kind := range extensions {
			k.session[tr] = key(string(kind))
		}
		keys.Set(pid, k)
	}
	return keys
})

// absorbSketch registers one histogram per sketch key — on the
// default bucket layout, the sketch's own — and folds the aggregated
// buckets in.
// Exact: the resulting histograms are indistinguishable from ones fed
// the original observation stream.
func absorbSketch(reg *obs.Registry, s *sketch.Set) error {
	if s == nil {
		return nil
	}
	for _, key := range s.Keys() {
		h := s.Get(key)
		if err := reg.Histogram(key, nil).Absorb(h.BucketCounts(), h.Count(), h.Sum()); err != nil {
			return err
		}
	}
	return nil
}

// publishAccounting exports the campaign's drop accounting and the
// merged simulator counters. Gauges, not counters: the source of
// truth stays the Dataset, and publishing is idempotent.
func publishAccounting(reg *obs.Registry, ds *Dataset, sim proxynet.SimStats) {
	publishDataset(reg, ds)
	publishSim(reg, sim)
}

// publishDataset exports the accounting a dataset itself carries —
// the part that survives a merge or a CSV release. (The simulator
// gauges below are per-run and only a live campaign can publish them.)
func publishDataset(reg *obs.Registry, ds *Dataset) {
	reg.Gauge("campaign_clients").Set(float64(ds.KeptClients))
	reg.Gauge("campaign_discarded_mismatch").Set(float64(ds.DiscardedMismatch))
	reg.Gauge("campaign_discarded_implausible").Set(float64(ds.DiscardedImplausible))
	for kind, ts := range ds.Transports {
		p := "campaign_" + string(kind) + "_"
		reg.Gauge(p + "queries").Set(float64(ts.Queries))
		reg.Gauge(p + "successes").Set(float64(ts.Successes))
		reg.Gauge(p + "discards").Set(float64(ts.Discards))
		reg.Gauge(p + "loss_events").Set(float64(ts.LossEvents))
		reg.Gauge(p + "blocked").Set(float64(ts.Blocked))
		reg.Gauge(p + "skipped").Set(float64(ts.Skipped))
	}
	for kind, bs := range ds.Breakers {
		p := "resolver_" + string(kind) + "_breaker_"
		reg.Gauge(p + "trips").Set(float64(bs.Trips))
		reg.Gauge(p + "short_circuits").Set(float64(bs.ShortCircuits))
		reg.Gauge(p + "probes").Set(float64(bs.Probes))
		reg.Gauge(p + "open").Set(float64(bs.EndedOpen))
	}
	for kind, n := range ds.SmartWins {
		reg.Gauge("campaign_smart_win_" + string(kind)).Set(float64(n))
	}
	for code, med := range ds.AtlasDo53Ms {
		reg.Gauge("campaign_atlas_do53_ms_" + code).Set(med)
	}
}

// publishSim exports the merged per-country simulator counters.
func publishSim(reg *obs.Registry, sim proxynet.SimStats) {
	reg.Gauge("campaign_sim_loss_events").Set(float64(sim.LossEvents))
	reg.Gauge("campaign_sim_dot_blocked").Set(float64(sim.DoTBlocked))
	reg.Gauge("campaign_sim_doq_blocked").Set(float64(sim.DoQBlocked))
	reg.Gauge("campaign_sim_exit_nodes").Set(float64(sim.ExitNodes))
	reg.Gauge("campaign_sim_doh_measurements").Set(float64(sim.DoHMeasurements))
	reg.Gauge("campaign_sim_do53_measurements").Set(float64(sim.Do53Measurements))
	reg.Gauge("campaign_sim_dot_measurements").Set(float64(sim.DoTMeasurements))
	reg.Gauge("campaign_sim_doq_measurements").Set(float64(sim.DoQMeasurements))
	if sim.ChaosResets+sim.ChaosChurns+sim.ChaosHeaderCorruptions > 0 {
		reg.Gauge("campaign_sim_chaos_resets").Set(float64(sim.ChaosResets))
		reg.Gauge("campaign_sim_chaos_churns").Set(float64(sim.ChaosChurns))
		reg.Gauge("campaign_sim_chaos_header_corruptions").Set(float64(sim.ChaosHeaderCorruptions))
	}
}

// addSimStats sums two simulator snapshots.
func addSimStats(a, b proxynet.SimStats) proxynet.SimStats {
	a.LossEvents += b.LossEvents
	a.DoTBlocked += b.DoTBlocked
	a.DoQBlocked += b.DoQBlocked
	a.ExitNodes += b.ExitNodes
	a.DoHMeasurements += b.DoHMeasurements
	a.Do53Measurements += b.Do53Measurements
	a.DoTMeasurements += b.DoTMeasurements
	a.DoQMeasurements += b.DoQMeasurements
	a.ChaosResets += b.ChaosResets
	a.ChaosChurns += b.ChaosChurns
	a.ChaosHeaderCorruptions += b.ChaosHeaderCorruptions
	return a
}
