package campaign

import (
	"sync"
	"time"

	"repro/internal/anycast"
	"repro/internal/obs"
	"repro/internal/proxynet"
)

// Observability aggregation: the run's one registry holds the latency
// histograms and, once the workers finish, the accounting gauges.
// Per-country simulators keep private counters while measuring
// (countryRun.settle attributes loss events to individual runs by
// sequential deltas, which a shared registry would break under
// parallel workers), so everything here is fed from the
// already-deterministic records and per-country accounting.
//
// Each finished country's clients fold straight into the registry's
// histograms through the worker's handles. Every accumulator is an
// atomic int64 sum, so the order countries fold in cannot show, and
// the snapshot is identical for any Config.Parallel, with clients
// retained or discarded. Merge folds its merged records the same way.

// msDuration converts a dataset's millisecond float back into a
// duration for histogram observation.
func msDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// Latency kinds per provider, the second index of a fold's handles:
// the DoH pair, the smart pair, then the extensions in table order.
const (
	kindDoH = iota
	kindDoHR
	kindSmart
	kindSmartR
	kindSession // plus the extension's index in extensions
	numKinds    = kindSession + len(extensions)
)

// histNames is every provider's histogram names by catalogue position
// and kind, built once per process and never written.
var histNames = sync.OnceValue(func() *[anycast.NumProviders][numKinds]string {
	kinds := [numKinds]string{kindDoH: "doh", kindDoHR: "dohr", kindSmart: "smart", kindSmartR: "smartr"}
	for tr, kind := range extensions {
		kinds[kindSession+tr] = string(kind)
	}
	names := new([anycast.NumProviders][numKinds]string)
	for p, pid := range anycast.ProviderIDs() {
		for k, kind := range kinds {
			names[p][k] = "campaign_" + kind + "_" + string(pid) + "_ms"
		}
	}
	return names
})

// fold observes client records into reg, holding a handle per
// histogram so that a name is looked up once, on its first
// observation:
//
//	campaign_doh_<provider>_ms    first-query DoH estimate per provider
//	campaign_dohr_<provider>_ms   reused-connection estimate
//	campaign_country_<code>_doh_ms  all providers' DoH, per country
//	campaign_do53_ms              valid default-resolver estimates
//	campaign_<dot|doq>_<provider>_ms  unblocked extension ground truth
//	campaign_smart_<provider>_ms  derived smart-race first-query time
//	campaign_smartr_<provider>_ms derived smart steady-state time
//
// A country histogram is registered for every client's country even
// when no DoH result is valid, so every run over the same clients
// exposes the same names. One fold serves one goroutine.
type fold struct {
	reg        *obs.Registry
	hists      [anycast.NumProviders][numKinds]*obs.Histogram
	do53       *obs.Histogram
	country    string
	countryDoH *obs.Histogram
}

// observe records ms under provider position p's histogram of kind.
func (f *fold) observe(p, kind int, ms float64) {
	h := f.hists[p][kind]
	if h == nil {
		h = f.reg.Histogram(histNames()[p][kind], nil)
		f.hists[p][kind] = h
	}
	h.Observe(msDuration(ms))
}

// clients folds client records into the registry.
func (f *fold) clients(clients []ClientRecord) {
	for i := range clients {
		c := &clients[i]
		if f.countryDoH == nil || c.CountryCode != f.country {
			f.country = c.CountryCode
			f.countryDoH = f.reg.Histogram("campaign_country_"+f.country+"_doh_ms", nil)
		}
		for p, pid := range anycast.ProviderIDs() {
			if res, _ := c.DoH.Get(pid); res.Valid {
				f.observe(p, kindDoH, res.TDoHMs)
				f.observe(p, kindDoHR, res.TDoHRMs)
				f.countryDoH.Observe(msDuration(res.TDoHMs))
			}
			for tr := range c.Sessions {
				if res, _ := c.Sessions[tr].Get(pid); res.Valid {
					f.observe(p, kindSession+tr, res.FirstMs)
				}
			}
			if res, _ := c.Smart.Get(pid); res.Valid {
				f.observe(p, kindSmart, res.TSmartMs)
				f.observe(p, kindSmartR, res.TSmartRMs)
			}
		}
		if c.Do53Valid {
			if f.do53 == nil {
				f.do53 = f.reg.Histogram("campaign_do53_ms", nil)
			}
			f.do53.Observe(msDuration(c.Do53Ms))
		}
	}
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
