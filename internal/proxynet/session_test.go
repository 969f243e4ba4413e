package proxynet

import (
	"context"
	"testing"
	"time"

	"repro/internal/anycast"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/smart"
)

// exactSim is a simulator whose every traversal costs its mean, so a
// measurement is a sum of known terms: the block draw and the PoP
// assignment are all that is left of the random stream.
func exactSim(t *testing.T, seed int64, tls12 bool, code string) (*Sim, *ExitNode) {
	t.Helper()
	sim := NewSim(seed)
	sim.Model.JitterSigma = 0
	sim.Model.PacketSigma = 0
	sim.Model.LossProb = 0
	sim.TLS12 = tls12
	node, err := sim.SelectExitNode(code)
	if err != nil {
		t.Fatal(err)
	}
	return sim, node
}

// unblocked measures until a session gets past port filtering.
func unblocked(t *testing.T, sim *Sim, tr Transport, node *ExitNode, pid anycast.ProviderID) (SessionObservation, SessionGroundTruth) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if obs, gt := sim.MeasureSession(tr, node, pid, "x.a.com."); !obs.Blocked {
			return obs, gt
		}
	}
	t.Fatalf("%s: 100 sessions blocked in a row", sessionProfiles[tr].name)
	return SessionObservation{}, SessionGroundTruth{}
}

// TestMeasureSessionRows holds every row of sessionProfiles to what the
// row says: a blocked session has no timings, an unblocked one costs
// the exit-side lookup, the row's handshake and the reused query, and
// the block rate is the row's probability; then the rows to each other
// and to smart's model of the same transports.
func TestMeasureSessionRows(t *testing.T) {
	for tr := Transport(0); tr < NumTransports; tr++ {
		p := sessionProfiles[tr]
		t.Run(p.name, func(t *testing.T) {
			sim := NewSim(41)
			sim.Model.LossProb = 0
			node, err := sim.SelectExitNode("IT")
			if err != nil {
				t.Fatal(err)
			}
			const runs = 4000
			blocked := 0
			for i := 0; i < runs; i++ {
				obs, gt := sim.MeasureSession(tr, node, anycast.Cloudflare, "t.a.com.")
				if obs.Blocked {
					blocked++
					if obs != (SessionObservation{Blocked: true}) || gt != (SessionGroundTruth{}) {
						t.Fatalf("blocked session carries timings: %+v %+v", obs, gt)
					}
					continue
				}
				if gt.First <= 0 || gt.Reused <= 0 || gt.Reused >= gt.First {
					t.Fatalf("ground truth = %+v", gt)
				}
				if !(obs.TA <= obs.TB && obs.TB <= obs.TC && obs.TC < obs.TD) {
					t.Fatalf("timestamps out of order: %+v", obs)
				}
			}
			if st := sim.Stats(); int64(blocked) != st.DoTBlocked+st.DoQBlocked ||
				st.DoTMeasurements+st.DoQMeasurements != runs {
				t.Errorf("blocked %d of %d, stats say %+v", blocked, runs, st)
			}
			// Four standard deviations of a binomial(4000, p) share.
			if rate := float64(blocked) / runs; rate < p.blockProb-0.013 || rate > p.blockProb+0.013 {
				t.Errorf("block rate = %.4f, want %.3f ± 0.013", rate, p.blockProb)
			}

			// Without jitter the sum is exact.
			exact, enode := exactSim(t, 44, false, "BR")
			obs, gt := unblocked(t, exact, tr, enode, anycast.Quad9)
			rttEP := 2 * exact.route(enode, anycast.Quad9).meanEP
			nt, nc := p.handshake.RoundTrips(false)
			if want := time.Duration(nt) * rttEP; obs.Tun.Connect != want {
				t.Errorf("connect = %v, want %d PoP round trips = %v", obs.Tun.Connect, nt, want)
			}
			handshake := time.Duration(nt+nc)*rttEP + netsim.CryptoCompute
			if want := obs.Tun.DNS + handshake + gt.Reused; gt.First != want {
				t.Errorf("First = %v, want DNS %v + handshake %v + Reused %v = %v",
					gt.First, obs.Tun.DNS, handshake, gt.Reused, want)
			}
		})
	}

	// Same seed, same node: what separates a cold DoQ query from a cold
	// DoT one is the transport round trips QUIC folds into its handshake.
	t.Run("doq is dot minus the connect", func(t *testing.T) {
		first := func(tr Transport) (time.Duration, time.Duration) {
			sim, node := exactSim(t, 45, false, "KE")
			_, gt := unblocked(t, sim, tr, node, anycast.Google)
			return gt.First, 2 * sim.route(node, anycast.Google).meanEP
		}
		dot, rttEP := first(DoT)
		doq, _ := first(DoQ)
		ntDoT, _ := sessionProfiles[DoT].handshake.RoundTrips(false)
		ntDoQ, _ := sessionProfiles[DoQ].handshake.RoundTrips(false)
		if want := dot - time.Duration(ntDoT-ntDoQ)*rttEP; doq != want || doq >= dot {
			t.Errorf("DoQ First = %v, want DoT First %v - %d PoP round trips of %v = %v",
				doq, dot, ntDoT-ntDoQ, rttEP, want)
		}
	})

	// The campaign's simulator and smart's SimTransport are two models
	// of the same transports: per kind they must charge the same round
	// trips before the first query, which is what sharing netsim's
	// table is for.
	t.Run("smart charges the same round trips", func(t *testing.T) {
		model := netsim.DefaultLatencyModel()
		model.JitterSigma, model.LossProb = 0, 0
		us := netsim.Endpoint{Pos: labPosition}
		q := resolver.Query(dnswire.NewName("x.a.com."), dnswire.TypeA)
		// What proxynet charged between the lookup and the query, net of
		// the provider's and the PoP's processing terms.
		session := func(tr Transport) func(*Sim, *ExitNode) (connect, crypto time.Duration) {
			return func(sim *Sim, node *ExitNode) (connect, crypto time.Duration) {
				obs, gt := unblocked(t, sim, tr, node, anycast.NextDNS)
				return obs.Tun.Connect, gt.First - obs.Tun.DNS - obs.Tun.Connect - gt.Reused - netsim.CryptoCompute
			}
		}
		doh := func(sim *Sim, node *ExitNode) (connect, crypto time.Duration) {
			_, gt := sim.MeasureDoH(node, anycast.NextDNS, "x.a.com.")
			setup := sim.Providers[anycast.NextDNS].SetupOverhead / 2
			return gt.Steps[5] + gt.Steps[6] - setup, gt.Steps[11] + gt.Steps[12] - setup - netsim.CryptoCompute
		}
		for _, c := range []struct {
			kind    resolver.Kind
			charged func(*Sim, *ExitNode) (connect, crypto time.Duration)
		}{{resolver.DoH, doh}, {resolver.DoT, session(DoT)}, {resolver.DoQ, session(DoQ)}} {
			st := smart.NewSimTransport(c.kind, model, 1, 1e9, nil)
			st.AddDestination("", us, us, 0)
			_, cold, err := st.Resolve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			rtt := 2 * model.MeanOneWay(us, us)
			smartConnect, smartCrypto := cold.Connect/rtt, (cold.TLSHandshake-netsim.CryptoCompute)/rtt

			sim, node := exactSim(t, 46, false, "PL")
			connect, crypto := c.charged(sim, node)
			rttEP := 2 * sim.route(node, anycast.NextDNS).meanEP
			if connect%rttEP != 0 || crypto%rttEP != 0 || smartConnect != connect/rttEP || smartCrypto != crypto/rttEP {
				t.Errorf("%s: smart charges %d transport + %d crypto round trips, proxynet %v + %v at %v a round trip",
					c.kind, smartConnect, smartCrypto, connect, crypto, rttEP)
			}
		}
	})
}

func TestDoTCheaperThanDoHFirstQuery(t *testing.T) {
	// The extension transports skip the DoH setup overhead and part of
	// the HTTP service time; for the same node the mean first-query
	// time should not exceed DoH's.
	for tr := Transport(0); tr < NumTransports; tr++ {
		sim := NewSim(42)
		sim.Model.LossProb = 0
		node, err := sim.SelectExitNode("DE")
		if err != nil {
			t.Fatal(err)
		}
		var dohSum, sessSum float64
		n := 0
		for i := 0; i < 60; i++ {
			_, gtDoH := sim.MeasureDoH(node, anycast.NextDNS, "x.a.com.")
			obs, gt := sim.MeasureSession(tr, node, anycast.NextDNS, "x.a.com.")
			if obs.Blocked {
				continue
			}
			dohSum += float64(gtDoH.TDoH)
			sessSum += float64(gt.First)
			n++
		}
		if n < 30 {
			t.Fatalf("only %d unblocked pairs", n)
		}
		if sessSum >= dohSum {
			t.Errorf("%s mean %.1f >= DoH mean %.1f for NextDNS (it must skip the setup overhead)",
				sessionProfiles[tr].name, sessSum/float64(n)/1e6, dohSum/float64(n)/1e6)
		}
	}
}

// A legacy peer costs every session transport exactly one more
// exit <-> PoP round trip: DoH's 22-step timeline and both session rows
// read the count from the one table.
func TestTLS12AddsARoundTrip(t *testing.T) {
	first := map[string]func(sim *Sim, node *ExitNode) time.Duration{
		"doh": func(sim *Sim, node *ExitNode) time.Duration {
			_, gt := sim.MeasureDoH(node, anycast.Cloudflare, "x.a.com.")
			return gt.TDoH
		},
	}
	for tr := Transport(0); tr < NumTransports; tr++ {
		tr := tr
		first[sessionProfiles[tr].name] = func(sim *Sim, node *ExitNode) time.Duration {
			_, gt := unblocked(t, sim, tr, node, anycast.Cloudflare)
			return gt.First
		}
	}
	for name, measure := range first {
		sim13, node13 := exactSim(t, 43, false, "BR")
		sim12, node12 := exactSim(t, 43, true, "BR")
		v13, v12 := measure(sim13, node13), measure(sim12, node12)
		rttEP := 2 * sim13.route(node13, anycast.Cloudflare).meanEP
		if v12-v13 != rttEP {
			t.Errorf("%s: TLS 1.2 first query %v, TLS 1.3 %v: extra = %v, want one PoP round trip = %v",
				name, v12, v13, v12-v13, rttEP)
		}
	}
}
