package smart

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/world"
)

// convergePoP places one transport's serving endpoint for a destination.
type convergePoP struct {
	pos     geo.Point
	country string
	service time.Duration
}

// convergeDest is one destination country: the client endpoint and the
// PoP of each transport in resolver.WireKinds order (Do53, DoH, DoT,
// DoQ). expect is the transport with the lowest warm latency.
type convergeDest struct {
	code   string
	client geo.Point
	pops   [4]convergePoP
	expect resolver.Kind
}

// convergeDests engineers a different winner per destination. The
// domestic Do53 resolver wins where the encrypted PoPs sit overseas
// (BR, NG), DoH where the provider has a local PoP and the ISP resolver
// is overloaded (JP, IN), DoT where its PoP is the local one (DE), and
// DoQ's cheaper handshake plus fastest service where every PoP is near
// (US). Service times: the ISP Do53 farm is slower than an anycast
// encrypted PoP, and DoQ deployments have the leanest serving path.
func convergeDests() []convergeDest {
	var (
		ashburn   = geo.Point{Lat: 39.0, Lon: -77.5}
		tokyo     = geo.Point{Lat: 35.7, Lon: 139.7}
		singapore = geo.Point{Lat: 1.35, Lon: 103.8}
		frankfurt = geo.Point{Lat: 50.1, Lon: 8.7}
		london    = geo.Point{Lat: 51.5, Lon: -0.1}
		miami     = geo.Point{Lat: 25.8, Lon: -80.2}
		saoPaulo  = geo.Point{Lat: -23.55, Lon: -46.6}
		mumbai    = geo.Point{Lat: 19.1, Lon: 72.9}
		lagos     = geo.Point{Lat: 6.5, Lon: 3.4}
	)
	ms := func(d float64) time.Duration { return time.Duration(d * float64(time.Millisecond)) }
	return []convergeDest{
		{"US", geo.Point{Lat: 39.8, Lon: -98.6}, [4]convergePoP{
			{ashburn, "US", ms(15)}, {ashburn, "US", ms(9)}, {ashburn, "US", ms(10)}, {ashburn, "US", ms(4)},
		}, resolver.DoQ},
		{"JP", geo.Point{Lat: 36.6, Lon: 138.1}, [4]convergePoP{
			{tokyo, "JP", ms(35)}, {tokyo, "JP", ms(8)}, {singapore, "SG", ms(8)}, {ashburn, "US", ms(4)},
		}, resolver.DoH},
		{"DE", geo.Point{Lat: 51.1, Lon: 10.4}, [4]convergePoP{
			{frankfurt, "DE", ms(30)}, {ashburn, "US", ms(8)}, {frankfurt, "DE", ms(8)}, {ashburn, "US", ms(4)},
		}, resolver.DoT},
		{"BR", geo.Point{Lat: -10.8, Lon: -52.9}, [4]convergePoP{
			{saoPaulo, "BR", ms(12)}, {miami, "US", ms(8)}, {miami, "US", ms(8)}, {miami, "US", ms(4)},
		}, resolver.Do53},
		{"IN", geo.Point{Lat: 22.9, Lon: 79.6}, [4]convergePoP{
			{mumbai, "IN", ms(40)}, {mumbai, "IN", ms(8)}, {frankfurt, "DE", ms(8)}, {singapore, "SG", ms(4)},
		}, resolver.DoH},
		{"NG", geo.Point{Lat: 9.6, Lon: 8.1}, [4]convergePoP{
			{lagos, "NG", ms(12)}, {london, "GB", ms(8)}, {london, "GB", ms(8)}, {ashburn, "US", ms(4)},
		}, resolver.Do53},
	}
}

// convergeDestOf labels a query "<code>.converge.example." by its code.
func convergeDestOf(q *dnswire.Message) string {
	name := string(q.Questions[0].Name)
	return name[:strings.IndexByte(name, '.')]
}

// newConvergeSet builds one SimTransport per wire kind with every
// destination registered, seeds offset per kind for independent jitter.
// The time scale is so large that no exchange sleeps: the modeled
// Timing is all anyone reads.
func newConvergeSet(model netsim.LatencyModel, seed int64, dests []convergeDest) []*SimTransport {
	var set []*SimTransport
	for i, kind := range resolver.WireKinds() {
		st := NewSimTransport(kind, model, seed+int64(i), 1e15, convergeDestOf)
		for _, d := range dests {
			pop := d.pops[i]
			client := netsim.Endpoint{Pos: d.client, Country: world.MustByCode(d.code), Residential: true}
			server := netsim.Endpoint{Pos: pop.pos, Country: world.MustByCode(pop.country)}
			st.AddDestination(d.code, client, server, pop.service)
		}
		set = append(set, st)
	}
	return set
}

func p95Ms(ds []time.Duration) float64 {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[int(math.Ceil(0.95*float64(len(sorted))))-1]) / float64(time.Millisecond)
}

// TestSmartConvergesToPerDestinationBest is the racing resolver's
// acceptance gate: on six destinations whose fastest transport differs,
// smart's steady state must track each destination's best fixed
// transport. After one race per destination (which elects the first
// launch, Do53, everywhere) and 300 rounds of convergence, 400 queries
// per destination must show:
//   - smart's p95 within 5% of the best fixed transport's p95, per
//     destination;
//   - smart's mean p95 below every fixed transport's mean p95;
//   - at most 1 extra in-flight attempt per query (probes included).
//
// It runs on smart's own clock, which moves a quarter of ProbeInterval
// before each query, so a destination asked back to back is probed on
// every 4th query; every probe finishes before the next query starts.
// With probing off, US, JP, DE and IN stay on Do53 at 1.2–2.2x the best.
func TestSmartConvergesToPerDestinationBest(t *testing.T) {
	const (
		n        = 400 // steady-state queries per destination
		converge = 300 // rounds over all destinations before measuring
		interval = 5 * time.Millisecond
	)
	dests := convergeDests()
	// The default model without loss and with less jitter: a 5% bound
	// on p95 needs stable tails, and a 180 ms loss penalty in 0.08% of
	// exchanges makes p95 a lottery at 400 samples.
	model := netsim.DefaultLatencyModel()
	model.LossProb = 0
	model.JitterSigma = 0.08
	ctx := context.Background()
	query := func(code string) *dnswire.Message {
		return resolver.Query(dnswire.NewName(code+".converge.example"), dnswire.TypeA)
	}

	// Fixed transports: one query per destination sets up the session,
	// then the steady-state sample.
	fixed := newConvergeSet(model, 42, dests)
	fixedP95 := make([][]float64, len(fixed)) // [kind][dest]
	for k, st := range fixed {
		for _, d := range dests {
			totals := make([]time.Duration, n+1)
			for i := range totals {
				_, tm, err := st.Resolve(ctx, query(d.code))
				if err != nil {
					t.Fatal(err)
				}
				totals[i] = tm.Total
			}
			fixedP95[k] = append(fixedP95[k], p95Ms(totals[1:]))
		}
	}

	var clock atomic.Int64
	var cands []Candidate
	for k, st := range newConvergeSet(model, 142, dests) {
		cands = append(cands, Candidate{Kind: resolver.WireKinds()[k], Resolver: st})
	}
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{
			Stagger:       time.Hour, // each race goes to the first launch
			ReRaceAfter:   -1,
			ProbeInterval: interval,
			// A loser must be 3% faster to switch: hysteresis against
			// jitter, low enough to reach each destination's winner.
			SwitchMargin: 0.97,
		},
		Candidates: cands,
		KeyFunc:    convergeDestOf,
		NowNanos:   clock.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resolve := func(code string) resolver.Timing {
		t.Helper()
		clock.Add(int64(interval / 4))
		_, tm, err := s.Resolve(ctx, query(code))
		if err != nil {
			t.Fatal(err)
		}
		s.wg.Wait() // any probe the query launched
		return tm
	}
	for round := 0; round <= converge; round++ {
		for _, d := range dests {
			resolve(d.code)
		}
	}
	if st := s.Stats(); st.RacesFirst != int64(len(dests)) || st.WinsByCandidate[0] != int64(len(dests)) {
		t.Fatalf("want one race per destination, each won by the first launch: %+v", st)
	}

	pre := s.Stats()
	var attempts int64
	var meanSmart float64
	meanFixed := make([]float64, len(fixed))
	for j, d := range dests {
		totals := make([]time.Duration, n)
		for i := range totals {
			tm := resolve(d.code)
			totals[i] = tm.Total
			attempts += int64(tm.Attempts)
		}
		smartP95, best := p95Ms(totals), math.Inf(1)
		for k := range fixed {
			best = math.Min(best, fixedP95[k][j])
			meanFixed[k] += fixedP95[k][j] / float64(len(dests))
		}
		meanSmart += smartP95 / float64(len(dests))
		t.Logf("%s: smart p95 %.2f ms, best fixed %.2f ms (%.3fx, expect %s)", d.code, smartP95, best, smartP95/best, d.expect)
		if smartP95 > 1.05*best {
			t.Errorf("%s: smart p95 %.2f ms is %.3fx the best fixed transport's %.2f ms, want <= 1.05x",
				d.code, smartP95, smartP95/best, best)
		}
	}
	for k, kind := range resolver.WireKinds() {
		t.Logf("mean p95: smart %.2f ms, %s %.2f ms", meanSmart, kind, meanFixed[k])
		if meanSmart >= meanFixed[k] {
			t.Errorf("smart mean p95 %.2f ms does not beat %s's %.2f ms", meanSmart, kind, meanFixed[k])
		}
	}
	post := s.Stats()
	if post.Races != pre.Races {
		t.Errorf("%d races during the steady state, want 0", post.Races-pre.Races)
	}
	queries := int64(n * len(dests))
	extra := float64(attempts+post.Probes-pre.Probes)/float64(queries) - 1
	t.Logf("steady state: %.4f extra in-flight attempts per query", extra)
	if extra > 1 {
		t.Errorf("%.4f extra in-flight attempts per query, want <= 1", extra)
	}
}
