package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/anycast"
	"repro/internal/proxynet"
	"repro/internal/stats"
)

func TestEstimateDoHRecoversGroundTruth(t *testing.T) {
	// The headline property of the methodology: across many countries
	// and providers, Equation 7/8 estimates must track the simulator's
	// ground truth with small error — the paper's validation found
	// differences within 8-10 ms (Tables 1, 2).
	sim := proxynet.NewSim(11)
	// Loss events are exercised by the campaign's drop accounting;
	// here we isolate the stable-RTT/jitter error the paper's
	// validation quantified.
	sim.Model.LossProb = 0
	countries := []string{"IE", "BR", "SE", "IT", "IN", "US", "NG", "JP", "AU", "TD"}
	var worst float64
	dropped, total := 0, 0
	for _, code := range countries {
		node, err := sim.SelectExitNode(code)
		if err != nil {
			t.Fatal(err)
		}
		for _, pid := range anycast.ProviderIDs() {
			var estM, gtM, estRM, gtRM []float64
			for i := 0; i < 10; i++ {
				obs, gt := sim.MeasureDoH(node, pid, "v.a.com.")
				total++
				est, err := EstimateDoH(obs)
				if err != nil {
					// A rare loss event inside the session violates
					// the stable-RTT assumption; the campaign drops
					// such runs, and so do we.
					dropped++
					continue
				}
				estM = append(estM, ms(est.TDoH))
				gtM = append(gtM, ms(gt.TDoH))
				estRM = append(estRM, ms(est.TDoHR))
				gtRM = append(gtRM, ms(gt.TDoHR))
			}
			if len(estM) < 7 {
				t.Fatalf("%s/%s: only %d/10 plausible measurements", code, pid, len(estM))
			}
			dDoH := math.Abs(stats.MustMedian(estM) - stats.MustMedian(gtM))
			dDoHR := math.Abs(stats.MustMedian(estRM) - stats.MustMedian(gtRM))
			if dDoH > worst {
				worst = dDoH
			}
			// Estimation error scales with the client-exit RTT the
			// assumptions approximate; allow 20 ms or 5% of the true
			// value, whichever is larger (well-connected countries
			// land under 10 ms like the paper's Tables 1-2).
			tolDoH := math.Max(15, 0.04*stats.MustMedian(gtM))
			tolDoHR := math.Max(15, 0.04*stats.MustMedian(gtRM))
			if dDoH > tolDoH {
				t.Errorf("%s/%s: median tDoH error %.1f ms, want <= %.1f", code, pid, dDoH, tolDoH)
			}
			if dDoHR > tolDoHR {
				t.Errorf("%s/%s: median tDoHR error %.1f ms, want <= %.1f", code, pid, dDoHR, tolDoHR)
			}
		}
	}
	if float64(dropped) > 0.1*float64(total) {
		t.Errorf("dropped %d/%d measurements, loss model too aggressive", dropped, total)
	}
	t.Logf("worst median tDoH estimation error: %.1f ms (%d/%d dropped)", worst, dropped, total)
}

func TestEstimateDoHExactWithoutJitter(t *testing.T) {
	// With jitter and loss disabled, the stable-RTT assumption holds
	// exactly and the estimator must be exact too.
	sim := proxynet.NewSim(12)
	sim.Model.JitterSigma = 0
	sim.Model.PacketSigma = 0
	sim.Model.LossProb = 0
	node, err := sim.SelectExitNode("FR")
	if err != nil {
		t.Fatal(err)
	}
	obs, gt := sim.MeasureDoH(node, anycast.Cloudflare, "e.a.com.")
	est, err := EstimateDoH(obs)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ms(est.TDoH) - ms(gt.TDoH)); d > 1 {
		t.Errorf("jitter-free tDoH error = %.3f ms, want < 1 (tls/svc asymmetries only)", d)
	}
	if d := math.Abs(ms(est.TDoHR) - ms(gt.TDoHR)); d > 1.5 {
		t.Errorf("jitter-free tDoHR error = %.3f ms", d)
	}
}

func TestEstimateDoHRejectsGarbage(t *testing.T) {
	bad := proxynet.DoHObservation{TA: 10, TB: 5, TC: 0, TD: 1}
	if _, err := EstimateDoH(bad); err == nil {
		t.Fatal("out-of-order timestamps accepted")
	}
	// Headers so large the estimate goes negative... construct TD<TC.
	bad2 := proxynet.DoHObservation{TA: 0, TB: 100, TC: 100, TD: 90}
	if _, err := EstimateDoH(bad2); err == nil {
		t.Fatal("TD < TC accepted")
	}
}

// TestImplausibleErrorText: an implausible observation's error is
// ErrImplausible to errors.Is and reads as the fmt.Errorf wrapping it
// replaced did.
func TestImplausibleErrorText(t *testing.T) {
	msec := time.Millisecond
	_, order := EstimateDoH(proxynet.DoHObservation{TA: 10, TB: 5})
	negObs := proxynet.DoHObservation{TB: 100 * msec, TC: 100 * msec, TD: 110 * msec}
	est, negative := EstimateDoH(negObs)
	_, header := EstimateDo53(proxynet.Do53Observation{Tun: proxynet.TunTimeline{DNS: -5 * msec}})
	for _, tc := range []struct {
		err  error
		want error
	}{
		{order, fmt.Errorf("%w: timestamps out of order", ErrImplausible)},
		{negative, fmt.Errorf("%w: negative estimate (tDoH=%v tDoHR=%v rtt=%v)",
			ErrImplausible, est.TDoH, est.TDoHR, est.RTT)},
		{header, fmt.Errorf("%w: header DNS value %v", ErrImplausible, -5*msec)},
	} {
		if !errors.Is(tc.err, ErrImplausible) {
			t.Errorf("errors.Is(%v, ErrImplausible) = false", tc.err)
		}
		if tc.err == nil || tc.err.Error() != tc.want.Error() {
			t.Errorf("error %q, want %q", tc.err, tc.want)
		}
	}
	if est.TDoH >= 0 {
		t.Errorf("negative-estimate observation estimated tDoH=%v", est.TDoH)
	}
}

func TestEstimateDo53(t *testing.T) {
	sim := proxynet.NewSim(13)
	node, err := sim.SelectExitNode("ZA")
	if err != nil {
		t.Fatal(err)
	}
	obs, gt := sim.MeasureDo53(node, "z.a.com.")
	v, err := EstimateDo53(obs)
	if err != nil {
		t.Fatal(err)
	}
	if v != gt.TDo53 {
		t.Errorf("Do53 = %v, truth %v", v, gt.TDo53)
	}

	spNode, err := sim.SelectExitNode("US")
	if err != nil {
		t.Fatal(err)
	}
	spObs, _ := sim.MeasureDo53(spNode, "z2.a.com.")
	if _, err := EstimateDo53(spObs); err == nil {
		t.Fatal("Super Proxy resolution accepted as a Do53 measurement")
	}
}

func TestDoHNAmortization(t *testing.T) {
	tDoH := 400 * time.Millisecond
	tDoHR := 250 * time.Millisecond
	if got := DoHN(tDoH, tDoHR, 1); got != tDoH {
		t.Errorf("DoH1 = %v", got)
	}
	got10 := DoHN(tDoH, tDoHR, 10)
	want10 := (tDoH + 9*tDoHR) / 10
	if got10 != want10 {
		t.Errorf("DoH10 = %v, want %v", got10, want10)
	}
	// Monotone: more reuse amortizes toward tDoHR.
	got100 := DoHN(tDoH, tDoHR, 100)
	got1000 := DoHN(tDoH, tDoHR, 1000)
	if !(got1000 < got100 && got100 < got10 && got10 < tDoH) {
		t.Errorf("amortization not monotone: %v %v %v %v", tDoH, got10, got100, got1000)
	}
	if got1000 < tDoHR {
		t.Errorf("DoH1000 = %v below tDoHR = %v", got1000, tDoHR)
	}
	if got := DoHN(tDoH, tDoHR, 0); got != tDoH {
		t.Errorf("DoHN(0) = %v, want tDoH", got)
	}
}

func TestValidationTablesReproduceSection4(t *testing.T) {
	sim := proxynet.NewSim(21)
	// Table 1: six ground-truth countries.
	doh, dohr, err := ValidateDoH(sim, anycast.Cloudflare,
		[]string{"IE", "BR", "SE", "IT", "IN", "US"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(doh) != 6 || len(dohr) != 6 {
		t.Fatalf("rows = %d/%d", len(doh), len(dohr))
	}
	for i, row := range doh {
		if row.DifferenceMs() > 15 {
			t.Errorf("Table1 DoH %s: difference %.1f ms, want <= 15 (paper <= 8)",
				row.CountryCode, row.DifferenceMs())
		}
		if dohr[i].DifferenceMs() > 15 {
			t.Errorf("Table1 DoHR %s: difference %.1f ms", dohr[i].CountryCode, dohr[i].DifferenceMs())
		}
	}
	// Table 2: Do53 ground truth in 4 countries (US and IN are
	// unmeasurable via the proxy network).
	do53, err := ValidateDo53(sim, []string{"IE", "BR", "SE", "IT"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range do53 {
		if row.DifferenceMs() > 2 {
			t.Errorf("Table2 %s: difference %.2f ms, want <= 2 (header is exact)",
				row.CountryCode, row.DifferenceMs())
		}
	}
	// The US is a Super-Proxy country: Do53 validation must error.
	if _, err := ValidateDo53(sim, []string{"US"}, 2); err == nil {
		t.Error("ValidateDo53(US) succeeded; the Super Proxy resolves there")
	}
}
