// Package analysis turns a campaign dataset into the paper's results:
// per-resolver resolution-time distributions (Figure 4), per-country
// medians and PoP censuses (Figure 5), anycast potential-improvement
// distributions (Figure 6), per-country Do53-to-DoH deltas (Figure 7),
// client-to-PoP distances (Figure 9), and the logistic and linear
// regression models of DoH slowdowns (Tables 4-6).
package analysis

import (
	"sort"

	"repro/internal/anycast"
	"repro/internal/campaign"
	"repro/internal/geo"
	"repro/internal/stats"
	"repro/internal/world"
)

// Row is one (client, provider) observation with everything the
// models need. Only clients with a valid Do53 measurement and a valid
// DoH measurement for the provider become rows, and only in countries
// that clear the per-country inclusion bar.
type Row struct {
	// CountryCode is the client's validated country.
	CountryCode string
	// Provider is the DoH service measured.
	Provider anycast.ProviderID
	// DoH1Ms is the estimated first-query resolution time.
	DoH1Ms float64
	// DoHRMs is the estimated reused-connection time.
	DoHRMs float64
	// Do53Ms is the default-resolver resolution time.
	Do53Ms float64
	// NSDistanceMiles is the client-to-authoritative distance.
	NSDistanceMiles float64
	// ResolverDistanceMiles is the client-to-used-PoP distance.
	ResolverDistanceMiles float64
	// PotentialImprovementMiles is dist(used PoP) - dist(nearest PoP).
	PotentialImprovementMiles float64
	// Country carries the covariates.
	Country world.Country
}

// DoHNMs is the average per-query time over n queries on one
// connection.
func (r Row) DoHNMs(n int) float64 {
	if n <= 1 {
		return r.DoH1Ms
	}
	return (r.DoH1Ms + float64(n-1)*r.DoHRMs) / float64(n)
}

// DeltaMs returns DoHN - Do53 (positive = slowdown).
func (r Row) DeltaMs(n int) float64 { return r.DoHNMs(n) - r.Do53Ms }

// Multiplier returns DoHN / Do53.
func (r Row) Multiplier(n int) float64 {
	if r.Do53Ms <= 0 {
		return 0
	}
	return r.DoHNMs(n) / r.Do53Ms
}

// Analysis wraps a dataset with the per-country inclusion decision.
type Analysis struct {
	// DS is the campaign output.
	DS *campaign.Dataset
	// MinClients is the per-country inclusion bar (paper: 10).
	MinClients int

	analyzed map[string]bool
	rows     []Row
}

// New prepares an analysis over ds.
func New(ds *campaign.Dataset, minClients int) *Analysis {
	a := &Analysis{DS: ds, MinClients: minClients, analyzed: map[string]bool{}}
	for _, code := range ds.AnalyzedCountries(minClients, nil) {
		a.analyzed[code] = true
	}
	a.buildRows()
	return a
}

// AnalyzedCountryCodes returns the included countries, sorted.
func (a *Analysis) AnalyzedCountryCodes() []string {
	var out []string
	for code := range a.analyzed {
		out = append(out, code)
	}
	sort.Strings(out)
	return out
}

func (a *Analysis) buildRows() {
	for i := range a.DS.Clients {
		c := &a.DS.Clients[i]
		if !a.analyzed[c.CountryCode] || !c.Do53Valid {
			continue
		}
		ct := world.MustByCode(c.CountryCode)
		for _, pid := range anycast.ProviderIDs() {
			res, ok := c.DoH.Get(pid)
			if !ok || !res.Valid {
				continue
			}
			a.rows = append(a.rows, Row{
				CountryCode:               c.CountryCode,
				Provider:                  pid,
				DoH1Ms:                    res.TDoHMs,
				DoHRMs:                    res.TDoHRMs,
				Do53Ms:                    c.Do53Ms,
				NSDistanceMiles:           c.NSDistanceKm / geo.KmPerMile,
				ResolverDistanceMiles:     res.PoPDistanceKm / geo.KmPerMile,
				PotentialImprovementMiles: res.PotentialImprovementKm() / geo.KmPerMile,
				Country:                   ct,
			})
		}
	}
}

// Rows returns the per-client-provider observations (clients with
// valid Do53 only, i.e. outside the 11 Super-Proxy countries).
func (a *Analysis) Rows() []Row { return a.rows }

// ResolverDistributions returns, per provider, the DoH1 and DoHR
// samples (milliseconds) across all clients with a valid measurement
// — including Super-Proxy-country clients, since DoH needs no Do53
// pairing. The Do53 sample pools every valid default-resolver
// measurement. This backs the Figure-4 CDFs.
func (a *Analysis) ResolverDistributions() (doh1, dohr map[anycast.ProviderID][]float64, do53 []float64) {
	doh1 = make(map[anycast.ProviderID][]float64)
	dohr = make(map[anycast.ProviderID][]float64)
	for i := range a.DS.Clients {
		c := &a.DS.Clients[i]
		if !a.analyzed[c.CountryCode] {
			continue
		}
		for _, pid := range anycast.ProviderIDs() {
			if res, ok := c.DoH.Get(pid); ok && res.Valid {
				doh1[pid] = append(doh1[pid], res.TDoHMs)
				dohr[pid] = append(dohr[pid], res.TDoHRMs)
			}
		}
		if c.Do53Valid {
			do53 = append(do53, c.Do53Ms)
		}
	}
	return doh1, dohr, do53
}

// CountryMedianDoH1 returns per-country median DoH1 per provider
// (Figure 5's choropleth values).
func (a *Analysis) CountryMedianDoH1() map[anycast.ProviderID]map[string]float64 {
	acc := make(map[anycast.ProviderID]map[string][]float64)
	for _, pid := range anycast.ProviderIDs() {
		acc[pid] = make(map[string][]float64)
	}
	for i := range a.DS.Clients {
		c := &a.DS.Clients[i]
		if !a.analyzed[c.CountryCode] {
			continue
		}
		for _, pid := range anycast.ProviderIDs() {
			if res, ok := c.DoH.Get(pid); ok && res.Valid {
				acc[pid][c.CountryCode] = append(acc[pid][c.CountryCode], res.TDoHMs)
			}
		}
	}
	out := make(map[anycast.ProviderID]map[string]float64)
	for pid, byCountry := range acc {
		out[pid] = make(map[string]float64)
		for code, vals := range byCountry {
			out[pid][code] = stats.MustMedian(vals)
		}
	}
	return out
}

// ObservedPoPs counts the distinct PoPs each provider served clients
// from — the paper's PoP census (Cloudflare 146, Google 26, ...).
func (a *Analysis) ObservedPoPs() map[anycast.ProviderID]int {
	seen := make(map[anycast.ProviderID]map[string]bool)
	for _, pid := range anycast.ProviderIDs() {
		seen[pid] = make(map[string]bool)
	}
	for i := range a.DS.Clients {
		c := &a.DS.Clients[i]
		for _, pid := range anycast.ProviderIDs() {
			if res, ok := c.DoH.Get(pid); ok && res.Valid && res.PoPID != "" {
				seen[pid][res.PoPID] = true
			}
		}
	}
	out := make(map[anycast.ProviderID]int)
	for pid, m := range seen {
		out[pid] = len(m)
	}
	return out
}

// PotentialImprovementMiles returns, per provider, the Figure-6
// distribution: how much closer each client's nearest PoP is than the
// PoP that actually served it.
func (a *Analysis) PotentialImprovementMiles() map[anycast.ProviderID][]float64 {
	out := make(map[anycast.ProviderID][]float64)
	for i := range a.DS.Clients {
		c := &a.DS.Clients[i]
		if !a.analyzed[c.CountryCode] {
			continue
		}
		for _, pid := range anycast.ProviderIDs() {
			if res, ok := c.DoH.Get(pid); ok && res.Valid {
				out[pid] = append(out[pid], res.PotentialImprovementKm()/geo.KmPerMile)
			}
		}
	}
	return out
}

// ClientPoPDistanceMiles returns, per provider, the Figure-9
// distribution of client-to-servicing-PoP distances.
func (a *Analysis) ClientPoPDistanceMiles() map[anycast.ProviderID][]float64 {
	out := make(map[anycast.ProviderID][]float64)
	for i := range a.DS.Clients {
		c := &a.DS.Clients[i]
		if !a.analyzed[c.CountryCode] {
			continue
		}
		for _, pid := range anycast.ProviderIDs() {
			if res, ok := c.DoH.Get(pid); ok && res.Valid {
				out[pid] = append(out[pid], res.PoPDistanceKm/geo.KmPerMile)
			}
		}
	}
	return out
}

// CountryDelta returns per-provider, per-country median deltas
// DoHN - Do53 in milliseconds (Figure 7; the paper uses N=10). In the
// 11 Super-Proxy countries the Atlas country median substitutes for
// the missing per-client Do53.
func (a *Analysis) CountryDelta(n int) map[anycast.ProviderID]map[string]float64 {
	type key struct {
		pid  anycast.ProviderID
		code string
	}
	acc := make(map[key][]float64)
	for i := range a.DS.Clients {
		c := &a.DS.Clients[i]
		if !a.analyzed[c.CountryCode] {
			continue
		}
		do53, ok := a.clientDo53(c)
		if !ok {
			continue
		}
		for _, pid := range anycast.ProviderIDs() {
			res, okr := c.DoH.Get(pid)
			if !okr || !res.Valid {
				continue
			}
			dohN := res.TDoHMs
			if n > 1 {
				dohN = (res.TDoHMs + float64(n-1)*res.TDoHRMs) / float64(n)
			}
			k := key{pid, c.CountryCode}
			acc[k] = append(acc[k], dohN-do53)
		}
	}
	out := make(map[anycast.ProviderID]map[string]float64)
	for _, pid := range anycast.ProviderIDs() {
		out[pid] = make(map[string]float64)
	}
	for k, vals := range acc {
		out[k.pid][k.code] = stats.MustMedian(vals)
	}
	return out
}

// clientDo53 returns the Do53 value to pair with a client: its own
// measurement, or the Atlas country median in Super-Proxy countries.
func (a *Analysis) clientDo53(c *campaign.ClientRecord) (float64, bool) {
	if c.Do53Valid {
		return c.Do53Ms, true
	}
	med, ok := a.DS.AtlasDo53Ms[c.CountryCode]
	return med, ok
}

// SpeedupShare reports the fraction of rows (client x provider) whose
// DoHN beat Do53 — the paper found 19.1% of clients enjoy a speedup
// even at N=1.
func (a *Analysis) SpeedupShare(n int) float64 {
	if len(a.rows) == 0 {
		return 0
	}
	faster := 0
	for _, r := range a.rows {
		if r.DeltaMs(n) < 0 {
			faster++
		}
	}
	return float64(faster) / float64(len(a.rows))
}

// CountrySpeedupShare reports the fraction of analyzed countries for
// which switching to DoH — via the provider that serves that country
// best — reduces the median resolution time at N queries (paper: 8.8%
// of countries benefit from the switch, e.g. Brazil's 33% speedup).
func (a *Analysis) CountrySpeedupShare(n int) float64 {
	deltas := a.CountryDelta(n)
	best := make(map[string]float64)
	for _, byCountry := range deltas {
		for code, d := range byCountry {
			if cur, ok := best[code]; !ok || d < cur {
				best[code] = d
			}
		}
	}
	if len(best) == 0 {
		return 0
	}
	faster := 0
	for _, d := range best {
		if d < 0 {
			faster++
		}
	}
	return float64(faster) / float64(len(best))
}

// RegionMedians aggregates DoH1 and Do53 medians per continental
// region for one provider. The paper contrasts its country-level
// analysis with Doan et al.'s continent-level DoT study and reports
// that every provider shows high regional variance; this view makes
// that comparison directly.
func (a *Analysis) RegionMedians(pid anycast.ProviderID) map[world.Region]RegionStats {
	acc := map[world.Region]*regionAcc{}
	for i := range a.DS.Clients {
		c := &a.DS.Clients[i]
		if !a.analyzed[c.CountryCode] {
			continue
		}
		ct := world.MustByCode(c.CountryCode)
		r, ok := acc[ct.Region]
		if !ok {
			r = &regionAcc{}
			acc[ct.Region] = r
		}
		if res, okr := c.DoH.Get(pid); okr && res.Valid {
			r.doh1 = append(r.doh1, res.TDoHMs)
			r.dohr = append(r.dohr, res.TDoHRMs)
		}
		if c.Do53Valid {
			r.do53 = append(r.do53, c.Do53Ms)
		}
	}
	out := map[world.Region]RegionStats{}
	for region, r := range acc {
		st := RegionStats{Clients: len(r.doh1)}
		if len(r.doh1) > 0 {
			st.DoH1Ms = stats.MustMedian(r.doh1)
			st.DoHRMs = stats.MustMedian(r.dohr)
		}
		if len(r.do53) > 0 {
			st.Do53Ms = stats.MustMedian(r.do53)
		}
		out[region] = st
	}
	return out
}

type regionAcc struct {
	doh1, dohr, do53 []float64
}

// RegionStats is one region's medians for one provider.
type RegionStats struct {
	// Clients is the number of contributing clients.
	Clients int
	// DoH1Ms, DoHRMs, Do53Ms are medians in milliseconds (zero when
	// the region has no valid data for that series).
	DoH1Ms, DoHRMs, Do53Ms float64
}

// DistanceLatencyCorrelation returns the Pearson correlation between
// each client's distance to its servicing PoP and its
// reused-connection resolution time for the provider — the direct
// check behind the paper's claim that resolver distance is the
// second-strongest predictor of DoH performance.
func (a *Analysis) DistanceLatencyCorrelation(pid anycast.ProviderID) (float64, error) {
	var dist, lat []float64
	for _, r := range a.rows {
		if r.Provider != pid {
			continue
		}
		dist = append(dist, r.ResolverDistanceMiles)
		lat = append(lat, r.DoHRMs)
	}
	return stats.Pearson(dist, lat)
}
