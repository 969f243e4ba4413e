package proxynet

import (
	"testing"

	"repro/internal/anycast"
)

func TestSimStatsCountsLossEvents(t *testing.T) {
	sim := NewSim(7)
	// Crank the loss probability so a short run must sample losses;
	// the counter pointer is shared with every Path the model spawns.
	sim.Params.Latency.LossProb = 0.5
	node, err := sim.SelectExitNode("US")
	if err != nil {
		t.Fatal(err)
	}
	before := sim.LossEvents()
	for i := 0; i < 20; i++ {
		sim.MeasureDoH(node, anycast.Google, "loss.a.com.")
	}
	after := sim.LossEvents()
	if after <= before {
		t.Errorf("LossEvents did not advance (before=%d after=%d) despite LossProb=0.5", before, after)
	}
}

func TestSimStatsDeterministicAcrossRuns(t *testing.T) {
	type counts struct {
		SimStats
		loss int64
	}
	run := func() counts {
		sim := NewSim(99)
		sim.EnableChaos(99, Chaos{ExitChurnProb: 0.1, HeaderCorruptProb: 0.1, ConnResetProb: 0.1})
		node, err := sim.SelectExitNode("BR")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			sim.MeasureDoH(node, anycast.Cloudflare, "d.a.com.")
			sim.MeasureSession(DoT, node, anycast.Cloudflare, "d.a.com.")
		}
		return counts{sim.Stats(), sim.LossEvents()}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed stats differ: %+v vs %+v", a, b)
	}
	if a.ChaosResets+a.ChaosChurns+a.ChaosHeaderCorruptions == 0 || a.loss == 0 {
		t.Errorf("stats %+v count nothing to compare", a)
	}
}
