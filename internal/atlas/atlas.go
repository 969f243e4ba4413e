// Package atlas models the RIPE-Atlas-like volunteer probe network
// the paper uses as a remedy: in the 11 countries hosting BrightData
// Super Proxies, the proxy headers cannot report exit-node Do53
// times, so conventional DNS probes supply the missing Do53 data
// (paper §3.5). Probes are residential volunteer hosts that resolve
// through their ISP default resolvers, like exit nodes do — §4.4
// validated that the two networks agree within ~8 ms on average.
package atlas

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/world"
)

// Probe is one volunteer measurement host.
type Probe struct {
	// ID identifies the probe.
	ID string
	// Country hosts the probe.
	Country world.Country
	// Endpoint is the probe's residential attachment.
	Endpoint netsim.Endpoint
	// ResolverEndpoint is the probe's ISP default resolver.
	ResolverEndpoint netsim.Endpoint
	// ResolverOverhead is the probe's ISP resolver processing
	// latency, drawn as the proxy network's exit nodes draw theirs
	// (netsim.ResidentialHost).
	ResolverOverhead time.Duration
}

// Network is the probe fleet plus the measurement substrate.
type Network struct {
	// Model is the latency model (share it with the proxy simulator
	// so the two networks are measuring the same world).
	Model netsim.LatencyModel
	// Rand drives sampling.
	Rand *rand.Rand
	// Auth is the authoritative name server endpoint.
	Auth netsim.Endpoint

	counter int
}

// New builds a probe network against the given authoritative endpoint.
func New(seed int64, model netsim.LatencyModel, auth netsim.Endpoint) *Network {
	return &Network{Model: model, Rand: rand.New(rand.NewSource(seed)), Auth: auth}
}

// Probe provisions a volunteer probe in the country.
func (n *Network) Probe(countryCode string) (*Probe, error) {
	ct, ok := world.ByCode(countryCode)
	if !ok {
		return nil, fmt.Errorf("atlas: unknown country %q", countryCode)
	}
	n.counter++
	// Volunteer probes sit behind the same mix of ISP resolvers as
	// exit nodes, including the occasional pathological one.
	host, resolverEP, overhead := netsim.ResidentialHost(n.Rand, ct)
	return &Probe{
		ID:               fmt.Sprintf("probe-%s-%05d", countryCode, n.counter),
		Country:          ct,
		Endpoint:         host,
		ResolverEndpoint: resolverEP,
		ResolverOverhead: overhead,
	}, nil
}

// MeasureDo53 runs one conventional DNS measurement at the probe: a
// cache-miss resolution through its default resolver to the
// authoritative server.
func (n *Network) MeasureDo53(p *Probe) time.Duration {
	pathPR := n.Model.NewPath(n.Rand, p.Endpoint, p.ResolverEndpoint)
	pathRA := n.Model.NewPath(n.Rand, p.ResolverEndpoint, n.Auth)
	return pathPR.RTT(n.Rand) + p.ResolverOverhead + pathRA.RTT(n.Rand) + netsim.AuthService
}

// CountryMedianDo53 provisions `probes` probes in the country, runs
// `runsPerProbe` measurements on each, and returns the median in
// milliseconds — the value the campaign substitutes for the
// unmeasurable Super-Proxy countries.
func (n *Network) CountryMedianDo53(countryCode string, probes, runsPerProbe int) (float64, error) {
	if probes <= 0 || runsPerProbe <= 0 {
		return 0, fmt.Errorf("atlas: need positive probe/run counts")
	}
	var vals []float64
	for i := 0; i < probes; i++ {
		p, err := n.Probe(countryCode)
		if err != nil {
			return 0, err
		}
		for r := 0; r < runsPerProbe; r++ {
			vals = append(vals, float64(n.MeasureDo53(p))/float64(time.Millisecond))
		}
	}
	return stats.MustMedian(vals), nil
}
