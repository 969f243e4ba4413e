package proxynet

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/geoip"
	"repro/internal/netsim"
	"repro/internal/world"
)

// Sim is the simulated proxy network: a measurement client and lab
// servers in the US, Super Proxies in the 11 countries BrightData
// operates them, and on-demand residential exit nodes everywhere.
//
// An exit node caches everything that follows from where it is (see
// ExitNode), so Lab, Providers and the geometry fields of Model — every
// field but JitterSigma, PacketSigma and the Loss* ones, which each
// measurement reads afresh — must be set before SelectExitNode, as
// EnableChaos must precede the first measurement.
type Sim struct {
	// Model is the latency model shared by every session.
	Model netsim.LatencyModel
	// Rand drives all sampling; campaigns are reproducible by seed.
	Rand *rand.Rand
	// Providers is the DoH provider catalogue. The map is this Sim's
	// own; the Providers it points to are shared by every Sim in the
	// process and read-only (anycast.Catalogue): to vary one, replace
	// the entry with a modified copy.
	Providers map[anycast.ProviderID]*anycast.Provider
	// Lab hosts the measurement client, the web server, and the
	// authoritative name server (the paper colocated all three in the
	// US).
	Lab netsim.Endpoint
	// Alloc assigns synthetic exit-node addresses.
	Alloc *geoip.Allocator
	// TLS12, when set, negotiates TLS 1.2 instead of 1.3 for DoH and
	// DoT sessions: session establishment costs a second round trip
	// (RFC 8446 vs RFC 5246), the slowdown the paper's limitations
	// section predicts for legacy clients. DoQ, which has no TLS 1.2,
	// pays netsim.Handshake's legacy count too, as an extra exchange.
	TLS12 bool

	exitCounter int
	// assignScratch is PoP assignment's work space, reused across nodes.
	assignScratch anycast.AssignScratch
	stats         simCounters
	// chaos holds the armed failure injector; nil until EnableChaos.
	chaos *chaosState
}

// simCounters holds the event counters behind Stats. All fields are
// updated atomically: campaigns read loss deltas between sequential
// measurements, but the race detector must stay quiet when a Sim's
// model escapes to helper services (Atlas probes share it).
type simCounters struct {
	lossEvents      int64
	exitNodes       int64
	dohMeasurements int64
	do53Measure     int64
	chaosResets     int64
	chaosChurns     int64
	chaosCorrupts   int64
	// sessions and blocked count MeasureSession runs and the ones
	// dropped by port filtering, per sessionProfiles row.
	sessions [NumTransports]int64
	blocked  [NumTransports]int64
}

// SimStats is a snapshot of the simulator's event counters — the
// accounting the paper's §3.5 drop handling needs. Before this
// existed, loss events sampled by the latency model simply vanished
// into longer delays with no way to assert on them.
type SimStats struct {
	// LossEvents counts retransmission-timeout loss events sampled on
	// any path owned by this simulator.
	LossEvents int64
	// DoTBlocked and DoQBlocked count sessions dropped by port-853
	// filtering (TCP for DoT, UDP for DoQ).
	DoTBlocked, DoQBlocked int64
	// ExitNodes counts provisioned exit nodes.
	ExitNodes int64
	// DoHMeasurements, Do53Measurements, DoTMeasurements, and
	// DoQMeasurements count measurement runs by transport.
	DoHMeasurements  int64
	Do53Measurements int64
	DoTMeasurements  int64
	DoQMeasurements  int64
	// ChaosResets, ChaosChurns, and ChaosHeaderCorruptions count
	// injected failures by mode (zero unless EnableChaos armed them).
	ChaosResets            int64
	ChaosChurns            int64
	ChaosHeaderCorruptions int64
}

// Stats returns a snapshot of the simulator's event counters.
func (s *Sim) Stats() SimStats {
	return SimStats{
		LossEvents:             atomic.LoadInt64(&s.stats.lossEvents),
		DoTBlocked:             atomic.LoadInt64(&s.stats.blocked[DoT]),
		DoQBlocked:             atomic.LoadInt64(&s.stats.blocked[DoQ]),
		ExitNodes:              atomic.LoadInt64(&s.stats.exitNodes),
		DoHMeasurements:        atomic.LoadInt64(&s.stats.dohMeasurements),
		Do53Measurements:       atomic.LoadInt64(&s.stats.do53Measure),
		DoTMeasurements:        atomic.LoadInt64(&s.stats.sessions[DoT]),
		DoQMeasurements:        atomic.LoadInt64(&s.stats.sessions[DoQ]),
		ChaosResets:            atomic.LoadInt64(&s.stats.chaosResets),
		ChaosChurns:            atomic.LoadInt64(&s.stats.chaosChurns),
		ChaosHeaderCorruptions: atomic.LoadInt64(&s.stats.chaosCorrupts),
	}
}

// labPosition approximates the paper's US deployment (us-east).
var labPosition = geo.Point{Lat: 39.04, Lon: -77.49}

// superProxyTable is the 11 Super Proxies in code order: each one's
// network attachment, code and precomputed position, index-aligned.
// It is a function of the world alone, so it is built once per process
// and every Sim reads it; nothing writes it after.
type superProxyTable struct {
	endpoints []netsim.Endpoint
	codes     []string
	sites     []geo.Site
}

var superProxies = sync.OnceValue(func() *superProxyTable {
	cts := world.SuperProxyCountries()
	t := &superProxyTable{
		endpoints: make([]netsim.Endpoint, len(cts)),
		codes:     make([]string, len(cts)),
		sites:     make([]geo.Site, len(cts)),
	}
	for i, ct := range cts {
		t.endpoints[i] = netsim.Endpoint{Pos: ct.Centroid, Country: ct}
		t.codes[i] = ct.Code
		t.sites[i] = ct.Centroid.Site()
	}
	return t
})

// NewSim constructs the simulated network with the calibrated default
// latency model and the standard provider catalogue.
func NewSim(seed int64) *Sim {
	s := &Sim{
		Model:     netsim.DefaultLatencyModel(),
		Rand:      rand.New(rand.NewSource(seed)),
		Providers: anycast.Catalogue(),
		Lab:       netsim.Endpoint{Pos: labPosition, Country: world.MustByCode("US")},
		Alloc:     geoip.NewAllocator(0),
	}
	s.Model.LossCounter = &s.stats.lossEvents
	return s
}

// ExitNode is one residential vantage point, alive for the duration of
// a measurement run (the paper issues several requests per exit node).
//
// A node computes once what is a pure function of its position, so
// that a measurement costs its random draws and nothing else: the
// jitter-free means of its five fixed routes at selection, and per
// provider — at the first measurement or PoPFor that names it, which is
// where the assignment's random draws fall — the PoP, its two
// distances and the two route means through it. The exported position
// fields are therefore read-only once SelectExitNode (or
// SelectExitNodeInto) returns, until the node is selected into again.
type ExitNode struct {
	// ID is the Super Proxy's stable identifier for the node; the
	// paper counts unique clients by it.
	ID string
	// Country is where the node actually is.
	Country world.Country
	// Addr is the node's synthetic address; analyses use its /24.
	Addr netip.Addr
	// Pos is the node's location (scattered around the country).
	Pos geo.Point
	// Endpoint is the node's network attachment (residential).
	Endpoint netsim.Endpoint
	// ResolverEndpoint is the ISP default resolver the node's OS
	// points at.
	ResolverEndpoint netsim.Endpoint
	// ResolverOverhead is this client's ISP resolver processing
	// latency: the country's typical overhead scaled by a per-client
	// lognormal factor. ISP resolver quality varies wildly between
	// providers within a country — this heterogeneity is what makes
	// ~19% of the paper's clients *faster* on DoH even at the first
	// query (their default resolver is simply bad).
	ResolverOverhead time.Duration
	// super is the Super Proxy serving this node (the nearest one).
	super     netsim.Endpoint
	superCode string
	// One-way route means: lab <-> Super Proxy, Super Proxy <-> exit,
	// exit <-> ISP resolver, ISP resolver <-> lab, exit <-> lab.
	meanCS, meanSE, meanER, meanRA, meanEL time.Duration
	// In a Super-Proxy country the Super Proxy resolves Do53 names
	// itself: Super Proxy <-> its colocated resolver, that resolver <->
	// lab, Super Proxy <-> lab. Zero elsewhere.
	meanSR, meanRL, meanSL time.Duration
	// pops holds one route per provider measured so far, in order of
	// first use; popBuf is its backing store for the usual four.
	pops   []popRoute
	popBuf [anycast.NumProviders]popRoute
}

// popRoute is a node's fixed route to one provider: the anycast
// assignment and the means of the two legs through the assigned PoP
// (exit <-> PoP, PoP <-> lab).
type popRoute struct {
	pid anycast.ProviderID
	anycast.Assignment
	meanEP, meanPA time.Duration
}

// resolverOverheadMedianShift and resolverOverheadSigma parameterize
// the per-client lognormal spread of ISP resolver quality, and a
// brokenResolverProb fraction of clients sit behind pathological
// default resolvers (overloaded, lossy, or very distant) that add
// hundreds of milliseconds. These clients are the population for whom
// switching to DoH is a win even on the first query — the paper found
// 19.1% of clients sped up at DoH1.
const (
	resolverOverheadMedianShift = 0.0
	resolverOverheadSigma       = 0.85
	brokenResolverProb          = 0.14
	brokenResolverMinMs         = 220
	brokenResolverMaxMs         = 950
)

// SuperProxyCountry returns the country code of the Super Proxy
// serving this exit node.
func (e *ExitNode) SuperProxyCountry() string { return e.superCode }

// resolverSvc is what the ISP resolver adds to the lookup of an
// encrypted-DNS server's hostname: it almost certainly has the popular
// name cached, so on top of one resolver RTT the exit-side lookup costs
// a sliver of its processing overhead.
func (e *ExitNode) resolverSvc() time.Duration {
	return time.Duration(0.3 * float64(e.ResolverOverhead))
}

// SelectExitNode asks the Super Proxy for a fresh exit node in the
// given country, as the paper does per measurement run.
func (s *Sim) SelectExitNode(countryCode string) (*ExitNode, error) {
	node := new(ExitNode)
	if err := s.SelectExitNodeInto(countryCode, node); err != nil {
		return nil, err
	}
	return node, nil
}

// SelectExitNodeInto is SelectExitNode into a node the caller owns, so
// that one node serves client after client: every field is overwritten
// and the routes of the node's previous client are forgotten. It draws
// from Rand exactly as SelectExitNode does and allocates only the ID.
// On an error node is left as it was.
func (s *Sim) SelectExitNodeInto(countryCode string, node *ExitNode) error {
	ct, ok := world.ByCode(countryCode)
	if !ok {
		return fmt.Errorf("proxynet: unknown country %q", countryCode)
	}
	addr, err := s.Alloc.Next(countryCode)
	if err != nil {
		return err
	}
	s.exitCounter++
	atomic.AddInt64(&s.stats.exitNodes, 1)
	pos := geo.Jitter(ct.Centroid, 420, s.Rand.Float64(), s.Rand.Float64())
	resolverPos := geo.Jitter(ct.Centroid, 120, s.Rand.Float64(), s.Rand.Float64())
	*node = ExitNode{
		ID:      exitID(countryCode, s.exitCounter),
		Country: ct,
		Addr:    addr,
		Pos:     pos,
		Endpoint: netsim.Endpoint{
			Pos: pos, Country: ct, Residential: true,
		},
		ResolverEndpoint: netsim.Endpoint{Pos: resolverPos, Country: ct},
		ResolverOverhead: time.Duration(ct.ResolverOverheadMs *
			math.Exp(resolverOverheadMedianShift+resolverOverheadSigma*s.Rand.NormFloat64()) *
			float64(time.Millisecond)),
	}
	node.pops = node.popBuf[:0]
	if s.Rand.Float64() < brokenResolverProb {
		extra := brokenResolverMinMs + s.Rand.Float64()*(brokenResolverMaxMs-brokenResolverMinMs)
		node.ResolverOverhead += time.Duration(extra * float64(time.Millisecond))
	}
	// The Super Proxy serving a client is the nearest of the 11.
	sp := superProxies()
	idx, _ := geo.Nearest(pos.Site(), sp.sites)
	node.super = sp.endpoints[idx]
	node.superCode = sp.codes[idx]

	node.meanCS = s.Model.MeanOneWay(s.Lab, node.super)
	node.meanSE = s.Model.MeanOneWay(node.super, node.Endpoint)
	node.meanER = s.Model.MeanOneWay(node.Endpoint, node.ResolverEndpoint)
	node.meanRA = s.Model.MeanOneWay(node.ResolverEndpoint, s.Lab)
	node.meanEL = s.Model.MeanOneWay(node.Endpoint, s.Lab)
	if world.IsSuperProxyCountry(countryCode) {
		spResolver := netsim.Endpoint{Pos: node.super.Pos, Country: node.super.Country}
		node.meanSR = s.Model.MeanOneWay(node.super, spResolver)
		node.meanRL = s.Model.MeanOneWay(spResolver, s.Lab)
		node.meanSL = s.Model.MeanOneWay(node.super, s.Lab)
	}
	return nil
}

// exitID renders fmt.Sprintf("exit-%s-%06d", code, n) for n >= 0,
// allocating only the returned string.
func exitID(code string, n int) string {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(n), 10)
	b := make([]byte, 0, 32)
	b = append(b, "exit-"...)
	b = append(b, code...)
	b = append(b, '-')
	for i := len(digits); i < 6; i++ {
		b = append(b, '0')
	}
	b = append(b, digits...)
	return string(b)
}

// PlantGroundTruthNode provisions a controlled exit node for the
// Section-4 validation experiments — the equivalent of the paper's
// EC2 machines volunteered into the proxy network. It sits at the
// same kind of vantage point as a regular exit node but runs a clean
// datacenter-grade resolver configuration (AWS-style local DNS)
// instead of a random residential ISP resolver.
func (s *Sim) PlantGroundTruthNode(countryCode string) (*ExitNode, error) {
	node, err := s.SelectExitNode(countryCode)
	if err != nil {
		return nil, err
	}
	node.ResolverOverhead = 3 * time.Millisecond
	return node, nil
}

// PoPFor returns (and fixes, for session consistency) the anycast PoP
// this exit node reaches for the given provider.
func (s *Sim) PoPFor(node *ExitNode, pid anycast.ProviderID) anycast.PoP {
	return s.route(node, pid).PoP
}

// route returns the node's route to the provider, assigning the PoP on
// first use. The pointer is good until the next route call on the node.
func (s *Sim) route(node *ExitNode, pid anycast.ProviderID) *popRoute {
	for i := range node.pops {
		if node.pops[i].pid == pid {
			return &node.pops[i]
		}
	}
	a := s.Providers[pid].Assign(s.Rand, node.Pos, &s.assignScratch)
	popEndpoint := netsim.Endpoint{Pos: a.PoP.Pos, Country: world.MustByCode(a.PoP.CountryCode)}
	node.pops = append(node.pops, popRoute{
		pid:        pid,
		Assignment: a,
		meanEP:     s.Model.MeanOneWay(node.Endpoint, popEndpoint),
		meanPA:     s.Model.MeanOneWay(popEndpoint, s.Lab),
	})
	return &node.pops[len(node.pops)-1]
}

// DoHObservation is everything the measurement client can see for one
// DoH measurement: its four local timestamps plus the Super Proxy's
// headers. The estimator in internal/core consumes exactly this.
type DoHObservation struct {
	// TA..TD are the paper's four client-side timestamps, as virtual
	// times within the session.
	TA, TB, TC, TD time.Duration
	// Tun is the X-Luminati-Tun-Timeline header (DNS = t3+t4,
	// Connect = t5+t6).
	Tun TunTimeline
	// Proxy is the X-Luminati-Timeline header (t_BrightData parts).
	Proxy ProxyTimeline
	// Provider identifies the DoH service measured.
	Provider anycast.ProviderID
	// QueryName is the unique cache-busting subdomain used.
	QueryName string
}

// DoHGroundTruth is what only the simulator (or the paper's planted
// EC2 exit nodes) can know: the exact per-step durations.
type DoHGroundTruth struct {
	// Steps holds t1..t22 at indexes 1..22 (index 0 unused).
	Steps [23]time.Duration
	// TDoH is the true DoH resolution time (Equation 1).
	TDoH time.Duration
	// TDoHR is the true reused-connection query time (t17+..+t20).
	TDoHR time.Duration
	// PoP is the point of presence that served the query.
	PoP anycast.PoP
	// PoPDistanceKm is the exit-to-PoP geodesic distance.
	PoPDistanceKm float64
	// NearestPoPDistanceKm is the distance to the provider's closest
	// PoP (for the potential-improvement analysis).
	NearestPoPDistanceKm float64
}

// sampleProxyTimeline draws the Super Proxy's internal processing
// costs for a new tunnel.
func (s *Sim) sampleProxyTimeline() ProxyTimeline {
	u := func(lo, hi float64) time.Duration {
		return time.Duration((lo + s.Rand.Float64()*(hi-lo)) * float64(time.Millisecond))
	}
	return ProxyTimeline{
		Auth:       u(2, 8),
		Init:       u(1, 5),
		SelectExit: u(4, 18),
		Validate:   u(0.5, 3),
	}
}

// MeasureDoH runs one full DoH measurement through the proxy network
// on a fresh virtual-time session, returning both the client-side
// observation and the simulator's ground truth.
//
// The 22 steps follow the paper's Figure 2:
//
//	1-2   CONNECT: client -> Super Proxy -> exit (plus t_BrightData)
//	3-4   exit resolves the DoH server's hostname via its ISP resolver
//	5-6   exit TCP handshake with the DoH PoP
//	7-8   tunnel established: exit -> Super Proxy -> client ("200 OK")
//	9-10  ClientHello: client -> Super Proxy -> exit
//	11-12 TLS 1.3 handshake round trip: exit <-> PoP
//	13-14 ServerHello back: exit -> Super Proxy -> client
//	15-16 Finished + HTTP GET: client -> Super Proxy -> exit
//	17    request: exit -> PoP
//	18-19 recursion: PoP <-> authoritative name server (cache miss)
//	20    response: PoP -> exit
//	21-22 response: exit -> Super Proxy -> client
//
// Every step waits for the one before it, so the session's clock is a
// running sum; nothing is scheduled. What is fixed is the order of the
// draws from s.Rand, because every golden file and the benchmark's CSV
// hash follow from it: the PoP assignment if this is the node's first
// use of the provider, the persistent factors of the five paths (CS,
// SE, ER, EP, PA), the four proxy-timeline costs, then t1 .. t22 in
// step order with TLS 1.2's two extra traversals right after t12's.
// Chaos draws from its own stream. TestMeasureDoHMatchesEventTimeline
// holds this to the event-driven timeline it replaced.
func (s *Sim) MeasureDoH(node *ExitNode, pid anycast.ProviderID, queryName string) (DoHObservation, DoHGroundTruth) {
	atomic.AddInt64(&s.stats.dohMeasurements, 1)
	provider := s.Providers[pid]
	route := s.route(node, pid)
	rng := s.Rand

	// Session-persistent paths: consecutive packets on the same route
	// are strongly correlated (Assumption 1 of the paper).
	pathCS := s.Model.PathFromMean(rng, node.meanCS)  // client <-> Super Proxy
	pathSE := s.Model.PathFromMean(rng, node.meanSE)  // Super Proxy <-> exit
	pathER := s.Model.PathFromMean(rng, node.meanER)  // exit <-> ISP resolver
	pathEP := s.Model.PathFromMean(rng, route.meanEP) // exit <-> PoP
	pathPA := s.Model.PathFromMean(rng, route.meanPA) // PoP <-> auth NS

	var gt DoHGroundTruth
	gt.PoP = route.PoP
	gt.PoPDistanceKm = route.DistanceKm
	gt.NearestPoPDistanceKm = route.NearestDistanceKm

	proxy := s.sampleProxyTimeline()
	obs := DoHObservation{Provider: pid, QueryName: queryName, Proxy: proxy}

	// TLS 1.3's one round trip is steps 11-12; whatever else the
	// handshake table charges a TCP+TLS session rides on them.
	_, tlsRTTs := netsim.TCPTLS.RoundTrips(s.TLS12)

	t := &gt.Steps

	// --- Phase 1: establish the tunnel (steps 1-8). T_A .. T_B ---
	t[1] = pathCS.OneWay(rng)
	t[2] = pathSE.OneWay(rng)
	t[3] = pathER.OneWay(rng)
	t[4] = pathER.OneWay(rng) + node.resolverSvc()
	t[5] = pathEP.OneWay(rng)
	t[6] = pathEP.OneWay(rng) + provider.SetupOverhead/2
	t[7] = pathSE.OneWay(rng)
	t[8] = pathCS.OneWay(rng)
	obs.Tun = TunTimeline{DNS: t[3] + t[4], Connect: t[5] + t[6]}
	obs.TB = obs.TA + proxy.Total()
	for i := 1; i <= 8; i++ {
		obs.TB += t[i]
	}

	// --- Phase 2: TLS handshake (steps 9-14). T_C .. ---
	obs.TC = obs.TB // the client fires the ClientHello immediately
	t[9] = pathCS.OneWay(rng)
	t[10] = pathSE.OneWay(rng)
	t[11] = pathEP.OneWay(rng)
	t[12] = pathEP.OneWay(rng) + netsim.CryptoCompute + provider.SetupOverhead/2
	for i := 1; i < tlsRTTs; i++ {
		// TLS 1.2 needs a second full round trip before the
		// session is usable.
		t[11] += pathEP.OneWay(rng)
		t[12] += pathEP.OneWay(rng)
	}
	t[13] = pathSE.OneWay(rng)
	t[14] = pathCS.OneWay(rng)

	// --- Phase 3: request (steps 15-22). .. T_D ---
	t[15] = pathCS.OneWay(rng)
	t[16] = pathSE.OneWay(rng)
	t[17] = pathEP.OneWay(rng)
	t[18] = provider.ServiceTime + pathPA.OneWay(rng)
	t[19] = pathPA.OneWay(rng) + netsim.AuthService
	t[20] = pathEP.OneWay(rng)
	t[21] = pathSE.OneWay(rng)
	t[22] = pathCS.OneWay(rng)
	obs.TD = obs.TC
	for i := 9; i <= 22; i++ {
		obs.TD += t[i]
	}

	gt.TDoH = t[3] + t[4] + t[5] + t[6] +
		t[11] + t[12] +
		t[17] + t[18] + t[19] + t[20]
	gt.TDoHR = t[17] + t[18] + t[19] + t[20]
	// Chaos corrupts only what the client gets to see; ground truth
	// keeps what really happened.
	return s.applyChaosDoH(obs), gt
}

// Do53Observation is the client-visible outcome of a Do53 measurement
// (the exit node fetching http://<uuid>.a.com/ so that its default
// resolver performs the lookup).
type Do53Observation struct {
	// Tun carries the header DNS value. In the 11 Super-Proxy
	// countries this reflects the Super Proxy's resolver, not the
	// exit's (paper §3.5).
	Tun TunTimeline
	// Proxy is the tunnel-establishment timeline.
	Proxy ProxyTimeline
	// ViaSuperProxy reports whether the Super Proxy performed the
	// resolution itself, invalidating the measurement.
	ViaSuperProxy bool
	// QueryName is the unique subdomain fetched.
	QueryName string
}

// Do53GroundTruth is the true Do53 resolution time at the exit node.
type Do53GroundTruth struct {
	// TDo53 is the exit node's actual cache-miss resolution time via
	// its default resolver.
	TDo53 time.Duration
}

// MeasureDo53 runs one Do53 measurement. The true resolution time is
// exit <-> ISP resolver plus the resolver's cache-miss recursion to
// our authoritative server, plus the resolver's own processing
// overhead (the paper's "default configuration" performance).
func (s *Sim) MeasureDo53(node *ExitNode, queryName string) (Do53Observation, Do53GroundTruth) {
	atomic.AddInt64(&s.stats.do53Measure, 1)
	pathER := s.Model.PathFromMean(s.Rand, node.meanER)
	pathRA := s.Model.PathFromMean(s.Rand, node.meanRA)

	trueDo53 := pathER.RTT(s.Rand) + node.ResolverOverhead + pathRA.RTT(s.Rand) + netsim.AuthService

	obs := Do53Observation{
		Proxy:     s.sampleProxyTimeline(),
		QueryName: queryName,
	}
	gt := Do53GroundTruth{TDo53: trueDo53}

	if world.IsSuperProxyCountry(node.Country.Code) {
		// The Super Proxy resolves the name itself: the header value
		// reflects a datacenter resolver colocated with the Super
		// Proxy — useless for the exit node's Do53 performance.
		pathSR := s.Model.PathFromMean(s.Rand, node.meanSR)
		pathRL := s.Model.PathFromMean(s.Rand, node.meanRL)
		obs.Tun = TunTimeline{
			DNS:     pathSR.RTT(s.Rand) + pathRL.RTT(s.Rand) + 2*time.Millisecond,
			Connect: s.Model.PathFromMean(s.Rand, node.meanSL).RTT(s.Rand),
		}
		obs.ViaSuperProxy = true
		return s.applyChaosDo53(obs), gt
	}

	obs.Tun = TunTimeline{
		DNS:     trueDo53,
		Connect: s.Model.PathFromMean(s.Rand, node.meanEL).RTT(s.Rand),
	}
	return s.applyChaosDo53(obs), gt
}
