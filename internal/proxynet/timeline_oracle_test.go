package proxynet

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/world"
)

// measureDoHEventTimeline is MeasureDoH as it stood before the
// straight-line rewrite, verbatim: 22 nested closures scheduled on the
// event engine of engine_test.go, every route mean and both PoP
// distances recomputed from positions. It is the reference MeasureDoH
// is held to.
func (s *Sim) measureDoHEventTimeline(node *ExitNode, pid anycast.ProviderID, queryName string) (DoHObservation, DoHGroundTruth) {
	atomic.AddInt64(&s.stats.dohMeasurements, 1)
	provider := s.Providers[pid]
	pop := s.PoPFor(node, pid)
	popEndpoint := netsim.Endpoint{Pos: pop.Pos, Country: world.MustByCode(pop.CountryCode)}

	// Session-persistent paths: consecutive packets on the same route
	// are strongly correlated (Assumption 1 of the paper).
	pathCS := s.Model.NewPath(s.Rand, s.Lab, node.super)         // client <-> Super Proxy
	pathSE := s.Model.NewPath(s.Rand, node.super, node.Endpoint) // Super Proxy <-> exit
	pathER := s.Model.NewPath(s.Rand, node.Endpoint, node.ResolverEndpoint)
	pathEP := s.Model.NewPath(s.Rand, node.Endpoint, popEndpoint) // exit <-> PoP
	pathPA := s.Model.NewPath(s.Rand, popEndpoint, s.Lab)         // PoP <-> auth NS

	var gt DoHGroundTruth
	gt.PoP = pop
	gt.PoPDistanceKm = geo.DistanceKm(node.Pos, pop.Pos)
	_, gt.NearestPoPDistanceKm = provider.NearestPoP(node.Pos)

	proxy := s.sampleProxyTimeline()

	eng := newEngine()
	var obs DoHObservation
	obs.Provider = pid
	obs.QueryName = queryName
	obs.Proxy = proxy

	step := func(i int, d time.Duration) time.Duration {
		gt.Steps[i] = d
		return d
	}

	// The ISP resolver almost certainly has the DoH server's hostname
	// cached (it is a popular name), so t3+t4 is one resolver RTT
	// plus a sliver of its processing overhead.
	resolverSvc := time.Duration(0.3 * float64(node.ResolverOverhead))
	// TLS and HTTP processing costs at the PoP.
	tlsCompute := time.Millisecond
	authSvc := 400 * time.Microsecond

	// --- Phase 1: establish the tunnel (steps 1-8). T_A .. T_B ---
	obs.TA = eng.Now() // zero
	eng.At(step(1, pathCS.OneWay(s.Rand))+proxy.Auth+proxy.Init+proxy.SelectExit+proxy.Validate, func() {
		eng.At(step(2, pathSE.OneWay(s.Rand)), func() {
			t3 := pathER.OneWay(s.Rand)
			t4 := pathER.OneWay(s.Rand) + resolverSvc
			step(3, t3)
			step(4, t4)
			eng.At(t3+t4, func() {
				t5 := pathEP.OneWay(s.Rand)
				t6 := pathEP.OneWay(s.Rand) + provider.SetupOverhead/2
				step(5, t5)
				step(6, t6)
				obs.Tun = TunTimeline{DNS: t3 + t4, Connect: t5 + t6}
				eng.At(t5+t6, func() {
					eng.At(step(7, pathSE.OneWay(s.Rand)), func() {
						eng.At(step(8, pathCS.OneWay(s.Rand)), func() {
							obs.TB = eng.Now()
						})
					})
				})
			})
		})
	})
	eng.Run()

	// --- Phase 2: TLS handshake (steps 9-14). T_C .. ---
	obs.TC = obs.TB // the client fires the ClientHello immediately
	eng.At(step(9, pathCS.OneWay(s.Rand)), func() {
		eng.At(step(10, pathSE.OneWay(s.Rand)), func() {
			t11 := pathEP.OneWay(s.Rand)
			t12 := pathEP.OneWay(s.Rand) + tlsCompute + provider.SetupOverhead/2
			if s.TLS12 {
				// TLS 1.2 needs a second full round trip before the
				// session is usable.
				t11 += pathEP.OneWay(s.Rand)
				t12 += pathEP.OneWay(s.Rand)
			}
			step(11, t11)
			step(12, t12)
			eng.At(t11+t12, func() {
				eng.At(step(13, pathSE.OneWay(s.Rand)), func() {
					eng.At(step(14, pathCS.OneWay(s.Rand)), func() {
						// --- Phase 3: request (steps 15-22) ---
						eng.At(step(15, pathCS.OneWay(s.Rand)), func() {
							eng.At(step(16, pathSE.OneWay(s.Rand)), func() {
								eng.At(step(17, pathEP.OneWay(s.Rand)), func() {
									t18 := provider.ServiceTime + pathPA.OneWay(s.Rand)
									t19 := pathPA.OneWay(s.Rand) + authSvc
									step(18, t18)
									step(19, t19)
									eng.At(t18+t19, func() {
										eng.At(step(20, pathEP.OneWay(s.Rand)), func() {
											eng.At(step(21, pathSE.OneWay(s.Rand)), func() {
												eng.At(step(22, pathCS.OneWay(s.Rand)), func() {
													obs.TD = eng.Now()
												})
											})
										})
									})
								})
							})
						})
					})
				})
			})
		})
	})
	eng.Run()

	gt.TDoH = gt.Steps[3] + gt.Steps[4] + gt.Steps[5] + gt.Steps[6] +
		gt.Steps[11] + gt.Steps[12] +
		gt.Steps[17] + gt.Steps[18] + gt.Steps[19] + gt.Steps[20]
	gt.TDoHR = gt.Steps[17] + gt.Steps[18] + gt.Steps[19] + gt.Steps[20]
	// Chaos corrupts only what the client gets to see; ground truth
	// keeps what really happened.
	return s.applyChaosDoH(obs), gt
}

// TestMeasureDoHMatchesEventTimeline runs two identically seeded
// simulators side by side, one measuring with MeasureDoH and one with
// the event-driven reference, and requires the same observation, the
// same ground truth down to every step and both distances, the same
// counters, and the same position in the random stream afterwards.
func TestMeasureDoHMatchesEventTimeline(t *testing.T) {
	// US and DE host Super Proxies; the rest do not.
	countries := []string{"US", "DE", "BR", "ZA", "ID", "IT"}
	chaos := Chaos{ExitChurnProb: 0.2, HeaderCorruptProb: 0.3, ConnResetProb: 0.2}
	cases := 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, tls12 := range []bool{false, true} {
			for _, withChaos := range []bool{false, true} {
				got, want := NewSim(seed), NewSim(seed)
				got.TLS12, want.TLS12 = tls12, tls12
				if withChaos {
					got.EnableChaos(seed+100, chaos)
					want.EnableChaos(seed+100, chaos)
				}
				for _, code := range countries {
					gotNode, err := got.SelectExitNode(code)
					if err != nil {
						t.Fatal(err)
					}
					wantNode, err := want.SelectExitNode(code)
					if err != nil {
						t.Fatal(err)
					}
					// Two runs per provider: the first assigns the PoP,
					// the second finds it assigned.
					for run := 0; run < 2; run++ {
						for _, pid := range anycast.ProviderIDs() {
							name := fmt.Sprintf("%s-%d.a.com.", code, run)
							gotObs, gotGT := got.MeasureDoH(gotNode, pid, name)
							wantObs, wantGT := want.measureDoHEventTimeline(wantNode, pid, name)
							at := fmt.Sprintf("seed %d tls12=%v chaos=%v %s %s run %d", seed, tls12, withChaos, code, pid, run)
							if gotObs != wantObs {
								t.Fatalf("%s: observation\n got %+v\nwant %+v", at, gotObs, wantObs)
							}
							if gotGT != wantGT {
								t.Fatalf("%s: ground truth\n got %+v\nwant %+v", at, gotGT, wantGT)
							}
							cases++
						}
					}
				}
				if g, w := got.Stats(), want.Stats(); g != w {
					t.Errorf("seed %d tls12=%v chaos=%v: stats %+v, want %+v", seed, tls12, withChaos, g, w)
				}
				if g, w := got.Rand.Int63(), want.Rand.Int63(); g != w {
					t.Errorf("seed %d tls12=%v chaos=%v: random stream diverged (next Int63 %d, want %d)", seed, tls12, withChaos, g, w)
				}
				if withChaos {
					if g, w := got.chaos.rng.Int63(), want.chaos.rng.Int63(); g != w {
						t.Errorf("seed %d tls12=%v: chaos stream diverged", seed, tls12)
					}
				}
			}
		}
	}
	if cases < 200 {
		t.Fatalf("compared %d measurements, want >= 200", cases)
	}
}
