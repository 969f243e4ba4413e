// Chaos-layer tests live in an external test package so they can run
// the corrupted observations through the real estimator in
// internal/core (which imports proxynet) and assert the §3.5 contract:
// every guaranteed-fatal corruption becomes an ErrImplausible discard,
// and nothing ever panics.
package proxynet_test

import (
	"errors"
	"testing"

	"repro/internal/anycast"
	"repro/internal/core"
	"repro/internal/proxynet"
)

func chaosSim(t *testing.T, country string, cfg proxynet.Chaos) (*proxynet.Sim, *proxynet.ExitNode) {
	t.Helper()
	sim := proxynet.NewSim(2021)
	sim.EnableChaos(7, cfg)
	node, err := sim.SelectExitNode(country)
	if err != nil {
		t.Fatal(err)
	}
	return sim, node
}

func TestChaosChurnDiscardsEveryDoH(t *testing.T) {
	sim, node := chaosSim(t, "BR", proxynet.Chaos{ExitChurnProb: 1})
	for i := 0; i < 25; i++ {
		o, _ := sim.MeasureDoH(node, anycast.Cloudflare, "churn.a.com.")
		if _, err := core.EstimateDoH(o); !errors.Is(err, core.ErrImplausible) {
			t.Fatalf("run %d: churned observation estimated without error (err=%v)", i, err)
		}
	}
	if got := sim.Stats().ChaosChurns; got != 25 {
		t.Errorf("ChaosChurns = %d, want 25", got)
	}
}

func TestChaosResetDiscardsEveryDoH(t *testing.T) {
	sim, node := chaosSim(t, "BR", proxynet.Chaos{ConnResetProb: 1})
	for i := 0; i < 25; i++ {
		o, _ := sim.MeasureDoH(node, anycast.Google, "reset.a.com.")
		if o.TB != 0 || o.TD != 0 || o.Tun != (proxynet.TunTimeline{}) {
			t.Fatalf("run %d: reset observation carries data: %+v", i, o)
		}
		if _, err := core.EstimateDoH(o); !errors.Is(err, core.ErrImplausible) {
			t.Fatalf("run %d: reset observation estimated without error (err=%v)", i, err)
		}
	}
	if got := sim.Stats().ChaosResets; got != 25 {
		t.Errorf("ChaosResets = %d, want 25", got)
	}
}

func TestChaosHeaderCorruptionDegradesGracefully(t *testing.T) {
	sim, node := chaosSim(t, "BR", proxynet.Chaos{HeaderCorruptProb: 1})
	discards := 0
	const runs = 50
	for i := 0; i < runs; i++ {
		o, _ := sim.MeasureDoH(node, anycast.Quad9, "corrupt.a.com.")
		est, err := core.EstimateDoH(o)
		if err != nil {
			if !errors.Is(err, core.ErrImplausible) {
				t.Fatalf("run %d: unexpected error class: %v", i, err)
			}
			discards++
			continue
		}
		// Missing headers can slip through as a plausible (wrong)
		// estimate; it must at least be internally consistent.
		if est.TDoH <= 0 || est.TDoHR <= 0 || est.RTT < 0 {
			t.Fatalf("run %d: accepted estimate is not plausible: %+v", i, est)
		}
	}
	// The garbage-value branch (~half the corruptions) is a guaranteed
	// discard, so a zero count means the chaos never fired.
	if discards == 0 {
		t.Error("no corrupted observation was discarded")
	}
	if got := sim.Stats().ChaosHeaderCorruptions; got != runs {
		t.Errorf("ChaosHeaderCorruptions = %d, want %d", got, runs)
	}
}

func TestChaosDo53Discards(t *testing.T) {
	for _, cfg := range []proxynet.Chaos{
		{ExitChurnProb: 1}, {HeaderCorruptProb: 1}, {ConnResetProb: 1},
	} {
		sim, node := chaosSim(t, "BR", cfg) // BR: no Super Proxy, Do53 normally valid
		for i := 0; i < 10; i++ {
			o, _ := sim.MeasureDo53(node, "chaos53.a.com.")
			if _, err := core.EstimateDo53(o); !errors.Is(err, core.ErrImplausible) {
				t.Fatalf("cfg %+v run %d: corrupted Do53 estimated without error (err=%v)", cfg, i, err)
			}
		}
	}
}

// TestChaosPreservesGroundTruth pins the central design decision:
// chaos corrupts only the client-visible observation, never the
// simulation itself. A chaos campaign and its clean twin draw
// identical ground truth.
func TestChaosPreservesGroundTruth(t *testing.T) {
	run := func(cfg proxynet.Chaos) []proxynet.DoHGroundTruth {
		sim := proxynet.NewSim(99)
		sim.EnableChaos(3, cfg)
		node, err := sim.SelectExitNode("IT")
		if err != nil {
			t.Fatal(err)
		}
		var out []proxynet.DoHGroundTruth
		for i := 0; i < 15; i++ {
			_, gt := sim.MeasureDoH(node, anycast.Cloudflare, "twin.a.com.")
			out = append(out, gt)
		}
		return out
	}
	clean := run(proxynet.Chaos{})
	chaotic := run(proxynet.Chaos{ExitChurnProb: 0.4, HeaderCorruptProb: 0.3, ConnResetProb: 0.2})
	for i := range clean {
		if clean[i] != chaotic[i] {
			t.Fatalf("ground truth %d diverged under chaos:\nclean   %+v\nchaotic %+v", i, clean[i], chaotic[i])
		}
	}
}

func TestChaosDeterministicBySeed(t *testing.T) {
	run := func() (proxynet.SimStats, proxynet.DoHObservation) {
		sim := proxynet.NewSim(4)
		sim.EnableChaos(11, proxynet.Chaos{ExitChurnProb: 0.3, HeaderCorruptProb: 0.3, ConnResetProb: 0.3})
		node, err := sim.SelectExitNode("AR")
		if err != nil {
			t.Fatal(err)
		}
		var last proxynet.DoHObservation
		for i := 0; i < 30; i++ {
			last, _ = sim.MeasureDoH(node, anycast.NextDNS, "det.a.com.")
		}
		return sim.Stats(), last
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1 != s2 {
		t.Errorf("same-seed chaos stats differ: %+v vs %+v", s1, s2)
	}
	if o1 != o2 {
		t.Errorf("same-seed chaos observations differ: %+v vs %+v", o1, o2)
	}
	if s1.ChaosChurns+s1.ChaosHeaderCorruptions+s1.ChaosResets == 0 {
		t.Error("no chaos events fired at 0.9 total probability over 30 runs")
	}
}

func TestChaosDisabledIsInert(t *testing.T) {
	sim := proxynet.NewSim(1)
	sim.EnableChaos(1, proxynet.Chaos{}) // all-zero config must disarm
	node, err := sim.SelectExitNode("BR")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		o, _ := sim.MeasureDoH(node, anycast.Cloudflare, "inert.a.com.")
		if _, err := core.EstimateDoH(o); err != nil {
			t.Fatalf("clean observation rejected: %v", err)
		}
	}
	s := sim.Stats()
	if s.ChaosChurns != 0 || s.ChaosHeaderCorruptions != 0 || s.ChaosResets != 0 {
		t.Errorf("disarmed chaos counted events: %+v", s)
	}
}
