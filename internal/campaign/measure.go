package campaign

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"time"

	"repro/internal/anycast"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/geo"
	"repro/internal/geoip"
	"repro/internal/netsim"
	"repro/internal/proxynet"
	"repro/internal/resolver"
	"repro/internal/world"
)

// countryRecord is what measureCountry produces for one country, and
// its checkpoint journal payload: JSON-round-trippable (float64
// survives encoding/json exactly, so restored records are
// byte-identical in the CSV export).
type countryRecord struct {
	Clients []ClientRecord `json:"clients"`
	Accounting
	// SimStats is the country simulator's injected-failure counts, which
	// neither the accounting nor the clients hold.
	SimStats proxynet.SimStats `json:"sim_stats"`
}

// countrySeed derives a country's independent stream from the
// campaign seed: the FNV-1a hash of fmt.Sprintf("%d/%s", seed, code),
// built on the stack.
func countrySeed(seed int64, code string) int64 {
	var buf [64]byte
	b := append(strconv.AppendInt(buf[:0], seed, 10), '/')
	b = append(b, code...)
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	return int64(h & 0x7fffffffffffffff)
}

// prefixScratch is a worker's reusable buffer for rendering each kept
// client's prefix without fmt's reflection path. It is shared between
// the worker's countries.
type prefixScratch struct {
	buf []byte
	// kept holds the records' prefixes, which live as long as the
	// dataset.
	kept dnswire.StringChunks
}

// prefix24 renders geoip.Prefix24(addr).String(), cut from the
// chunks of kept strings.
func (s *prefixScratch) prefix24(addr netip.Addr) string {
	s.buf = geoip.Prefix24(addr).AppendTo(s.buf[:0])
	return s.kept.Cut(s.buf)
}

// countryRun is what one country's measurement loops share: the
// simulator, the accounting, and the step every run takes after its
// transport's own Measure call, settle.
type countryRun struct {
	sim  *proxynet.Sim
	acct Accounting
	// lossSeen is the simulator's loss counter as of the last settled
	// run; the difference is what the next (sequential) run absorbed.
	lossSeen int64
}

// runOutcome is how an issued run ended.
type runOutcome int

const (
	runMeasured    runOutcome = iota // a usable estimate
	runImplausible                   // dropped by the estimator's plausibility checks
	runBlocked                       // dropped by port-853 filtering
	// runPermanent is a failure every later run of the client repeats
	// (Do53 behind a Super Proxy): the runs left are skipped, and
	// counted, so Queries+Skipped still adds up to the configured runs.
	runPermanent
)

// runs issues the n runs of kind one client makes to one destination:
// each is measured by measure, settled and counted by its outcome. No
// run carries a query name: the simulator busts caches by the legs
// each run pays, not by a name. first and reused are the
// measured runs' mean times in milliseconds, got counts those runs and
// blocked the blocked ones. measure is called, never kept, so a closure
// passed to it stays on its caller's stack.
func (r *countryRun) runs(kind resolver.Kind, n int, measure func() (first, reused time.Duration, o runOutcome)) (first, reused float64, got, blocked int) {
loop:
	for i := range n {
		f, re, o := measure()
		r.settle(kind, o)
		switch o {
		case runMeasured:
			first += float64(f) / float64(time.Millisecond)
			reused += float64(re) / float64(time.Millisecond)
			got++
		case runImplausible:
			r.acct.DiscardedImplausible++
		case runBlocked:
			blocked++
		case runPermanent:
			ts := r.acct.Transports[kind]
			ts.Skipped += n - i - 1
			r.acct.Transports[kind] = ts
			break loop
		}
	}
	if got > 0 {
		first /= float64(got)
		reused /= float64(got)
	}
	return first, reused, got, blocked
}

// settle closes an issued run: it lands in exactly one accounting
// bucket, with the loss events it absorbed.
func (r *countryRun) settle(kind resolver.Kind, o runOutcome) {
	ts := r.acct.Transports[kind]
	ts.Queries++
	losses := r.sim.LossEvents()
	ts.LossEvents += losses - r.lossSeen
	r.lossSeen = losses
	if o != runMeasured {
		ts.Discards++
	} else {
		ts.Successes++
	}
	if o == runBlocked {
		ts.Blocked++
	}
	r.acct.Transports[kind] = ts
}

// clientsIn is the number of exit nodes the campaign provisions in ct:
// its weight times ClientScale, capped at MaxClients, at least one.
func clientsIn(cfg Config, ct world.Country) int {
	return max(min(int(ct.ExitNodeWeight*cfg.ClientScale), MaxClients), 1)
}

// worker is one worker goroutine's reusable state. Every country the
// worker measures shares its prefix chunks and its exit node (whose IDs
// are cut from chunks the node carries), so that a kept client
// allocates only its share of the chunks its record's strings are cut
// from. fold holds its handles on the run's histograms.
//
// A country's set-up is reset, not rebuilt: measureCountry reseeds the
// worker's one simulator and clears its accounting map (made with the
// worker), which the country's record then holds. That is safe because
// a record's map is used up before the worker takes its next country:
// journal.Put marshals it, Accounting.add sums it, and nothing keeps it.
type worker struct {
	prefixes   prefixScratch
	fold       fold
	node       proxynet.ExitNode
	sim        proxynet.Sim
	transports map[resolver.Kind]TransportStats
}

// measureCountry provisions and measures all of one country's clients
// on the worker's simulator, reset to the country's seed and calibrated
// by params, appending their records to out, which must have room for
// clientsIn of them: the records are written in place, never moved.
// Cancellation is checked between clients: an abandoned country
// returns the context error and is never journaled, so a resumed
// campaign re-measures it in full.
func measureCountry(ctx context.Context, cfg Config, params netsim.Params, code string, w *worker, out []ClientRecord) (countryRecord, error) {
	providers := anycast.ProviderIDs()
	ct, ok := world.ByCode(code)
	if !ok {
		return countryRecord{}, fmt.Errorf("campaign: unknown country %q", code)
	}
	clear(w.transports)
	sim := &w.sim
	sim.Reset(countrySeed(cfg.Seed, code))
	sim.Params = params
	if cfg.Chaos.Enabled() {
		// A chaos stream of its own, also derived from the campaign
		// seed: per-country, deterministic, schedule-independent.
		sim.EnableChaos(countrySeed(cfg.Seed, code+"/chaos"), cfg.Chaos)
	}
	run := countryRun{sim: sim, acct: Accounting{Transports: w.transports}}
	locator := geoip.NewService(sim.Alloc)

	wants := func(kind resolver.Kind) bool { return slices.Contains(cfg.Transports, kind) }

	// The node is the worker's: the record keeps its ID and position,
	// nothing that points into it.
	node := &w.node
	out = out[:0]
	for range clientsIn(cfg, ct) {
		if err := ctx.Err(); err != nil {
			return countryRecord{}, err
		}
		if err := sim.SelectExitNodeInto(code, node); err != nil {
			return countryRecord{}, err
		}
		// Country cross-check (paper §3.5): the proxy network's label
		// vs the geolocation service's for the /24.
		located, ok := locator.Locate(node.Addr)
		if !ok || located != code {
			run.acct.DiscardedMismatch++
			continue
		}
		out = append(out, ClientRecord{
			ClientID:     node.ID,
			CountryCode:  code,
			Prefix:       w.prefixes.prefix24(node.Addr),
			Pos:          node.Pos,
			NSDistanceKm: geo.DistanceKm(node.Pos, sim.Lab.Pos),
		})
		rec := &out[len(out)-1]
		if wants(resolver.DoH) {
			for _, pid := range providers {
				var res DoHResult
				first, reused, got, _ := run.runs(resolver.DoH, RunsPerClient, func() (time.Duration, time.Duration, runOutcome) {
					obs, gt := sim.MeasureDoH(node, pid, "")
					est, err := core.EstimateDoH(obs)
					if err != nil {
						return 0, 0, runImplausible
					}
					res.PoPID, res.PoPCountry = gt.PoP.ID, gt.PoP.CountryCode
					res.PoPDistanceKm, res.NearestPoPDistanceKm = gt.PoPDistanceKm, gt.NearestPoPDistanceKm
					return est.TDoH, est.TDoHR, runMeasured
				})
				if got > 0 {
					res.TDoHMs, res.TDoHRMs, res.Valid = first, reused, true
				}
				rec.DoH.Set(pid, res)
			}
		}
		if wants(resolver.Do53) {
			first, _, got, _ := run.runs(resolver.Do53, RunsPerClient, func() (time.Duration, time.Duration, runOutcome) {
				o, _ := sim.MeasureDo53(node, "")
				v, err := core.EstimateDo53(o)
				switch {
				case err == nil:
					return v, 0, runMeasured
				case errors.Is(err, core.ErrSuperProxyResolution):
					// The Super Proxy answers every run of this client.
					return 0, 0, runPermanent
				}
				return 0, 0, runImplausible
			})
			if got > 0 {
				rec.Do53Ms, rec.Do53Valid = first, true
			}
		}
		for tr, kind := range extensions {
			if !wants(kind) {
				continue
			}
			for _, pid := range providers {
				first, reused, got, blocked := run.runs(kind, RunsPerClient, func() (time.Duration, time.Duration, runOutcome) {
					obs, gt := sim.MeasureSession(proxynet.Transport(tr), node, pid, "")
					if obs.Blocked {
						return 0, 0, runBlocked
					}
					// Ground truth: the extension transports have no
					// estimator of their own.
					return gt.First, gt.Reused, runMeasured
				})
				res := SessionResult{BlockedRuns: blocked, Blocked: got == 0 && blocked > 0}
				if got > 0 {
					res.FirstMs, res.ReusedMs, res.Valid = first, reused, true
				}
				rec.Sessions[tr].Set(pid, res)
			}
		}
		if wants(resolver.Smart) {
			for _, pid := range providers {
				rec.Smart.Set(pid, deriveSmart(rec, pid))
			}
		}
	}
	return countryRecord{Clients: out, Accounting: run.acct, SimStats: sim.Stats()}, nil
}
