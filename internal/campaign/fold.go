package campaign

import (
	"sync"
	"time"

	"repro/internal/anycast"
	"repro/internal/obs"
	"repro/internal/proxynet"
	"repro/internal/resolver"
	"repro/internal/world"
)

// Folding a finished country into the run: its drop accounting sums
// into the dataset's (Accounting.add), its chaos counts into the run's
// total, and its records into the run's one registry, which holds the
// latency histograms and, once the workers finish, the gauges. The
// accounting and the records are the campaign's only counts, each
// thing counted once: a client kept or dropped, a run by outcome, a
// loss event (settle gives it to the run that absorbed it, by sequential
// differences of the country simulator's LossEvents), a smart race won
// (countSmartWins). The simulator counts only what chaos injected.
//
// Each finished country's clients fold straight into the registry's
// histograms through the worker's handles. Every accumulator is an
// atomic int64 sum, so the order countries fold in cannot show, and
// the snapshot is identical for any Config.Parallel, and for a run
// that restores countries from the journal instead of measuring them.

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

// countryHistNames is every country's DoH histogram name by code,
// built once per process and never written.
var countryHistNames = sync.OnceValue(func() map[string]string {
	all := world.All()
	names := make(map[string]string, len(all))
	for _, ct := range all {
		names[ct.Code] = "campaign_country_" + ct.Code + "_doh_ms"
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
			name, ok := countryHistNames()[f.country]
			if !ok {
				name = "campaign_country_" + f.country + "_doh_ms"
			}
			f.countryDoH = f.reg.Histogram(name, nil)
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

// publish exports the dataset's drop accounting and smart-win split and
// the run's summed injected-failure counts into reg, which holds its
// folded histograms, and snapshots it into ds.Obs. Gauges, not
// counters: the source of truth stays the Dataset, and publishing is
// idempotent. The snapshot is a pure function of the records, the
// accounting and the chaos counts, all of which a journal restores, so
// it inherits their schedule independence and a recombining run's
// matches the unsharded run's.
func publish(reg *obs.Registry, ds *Dataset, sim proxynet.SimStats) {
	reg.Gauge("campaign_clients").Set(float64(len(ds.Clients)))
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
	for kind, n := range ds.SmartWins {
		reg.Gauge("campaign_smart_win_" + string(kind)).Set(float64(n))
	}
	for code, med := range ds.AtlasDo53Ms {
		reg.Gauge("campaign_atlas_do53_ms_" + code).Set(med)
	}
	if sim.ChaosResets+sim.ChaosChurns+sim.ChaosHeaderCorruptions > 0 {
		reg.Gauge("campaign_sim_chaos_resets").Set(float64(sim.ChaosResets))
		reg.Gauge("campaign_sim_chaos_churns").Set(float64(sim.ChaosChurns))
		reg.Gauge("campaign_sim_chaos_header_corruptions").Set(float64(sim.ChaosHeaderCorruptions))
	}
	ds.Obs = reg.Snapshot()
}

// addSimStats sums two countries' injected-failure counts.
func addSimStats(a, b proxynet.SimStats) proxynet.SimStats {
	a.ChaosResets += b.ChaosResets
	a.ChaosChurns += b.ChaosChurns
	a.ChaosHeaderCorruptions += b.ChaosHeaderCorruptions
	return a
}

// Accounting is the drop accounting of a country, of its journal record
// (under these JSON names) and of a dataset, which sums its countries'.
type Accounting struct {
	// DiscardedMismatch counts clients dropped because the proxy
	// network and the geolocation service disagreed on the country.
	DiscardedMismatch int `json:"mismatch"`
	// DiscardedImplausible counts measurements dropped by the
	// estimator's plausibility checks.
	DiscardedImplausible int `json:"implausible"`
	// Transports reports per-transport measurement accounting: how
	// many queries ran, how many were discarded, and how many wire
	// loss events they absorbed (paper §3.5's drop handling, reported
	// per transport instead of silently lost).
	Transports map[resolver.Kind]TransportStats `json:"transports"`
}

// add sums o into a: the one fold, per country in Run.
func (a *Accounting) add(o Accounting) {
	a.DiscardedMismatch += o.DiscardedMismatch
	a.DiscardedImplausible += o.DiscardedImplausible
	for kind, ts := range o.Transports {
		if a.Transports == nil {
			a.Transports = make(map[resolver.Kind]TransportStats)
		}
		t := a.Transports[kind]
		t.Queries += ts.Queries
		t.Successes += ts.Successes
		t.Discards += ts.Discards
		t.LossEvents += ts.LossEvents
		t.Blocked += ts.Blocked
		t.Skipped += ts.Skipped
		a.Transports[kind] = t
	}
}

// TransportStats is the per-transport drop accounting for a campaign.
type TransportStats struct {
	// Queries counts measurement runs issued on the transport.
	Queries int
	// Successes counts runs that produced a usable estimate. Every
	// issued run lands in exactly one bucket, so
	// Queries == Successes + Discards always holds — the balance the
	// chaos soak asserts on.
	Successes int
	// Discards counts runs dropped by the estimator's plausibility
	// checks (or, for Do53 in Super-Proxy countries, the §3.5
	// invalidation) — plus blocked DoT and DoQ sessions.
	Discards int
	// LossEvents counts simulated retransmission-timeout events on
	// the wire during the transport's measurement runs.
	LossEvents int64
	// Blocked counts DoT and DoQ sessions dropped by port-853 filtering
	// (always zero for Do53 and DoH).
	Blocked int
	// Skipped counts runs that were never issued because an earlier
	// run hit a permanent per-client failure (Do53 in a Super-Proxy
	// country: once the Super Proxy answers for the exit node, the
	// remaining runs cannot succeed either). Queries + Skipped equals
	// the configured runs, so nothing silently vanishes from the
	// accounting.
	Skipped int
}
