package proxynet

import (
	"testing"

	"repro/internal/anycast"
)

func TestSimStatsCountsMeasurements(t *testing.T) {
	sim := NewSim(2021)
	if s := sim.Stats(); s != (SimStats{}) {
		t.Fatalf("fresh sim has non-zero stats: %+v", s)
	}
	node, err := sim.SelectExitNode("US")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 40
	for i := 0; i < runs; i++ {
		sim.MeasureDoH(node, anycast.Cloudflare, "s.a.com.")
		sim.MeasureDo53(node, "s.a.com.")
		sim.MeasureSession(DoT, node, anycast.Cloudflare, "s.a.com.")
	}
	s := sim.Stats()
	if s.ExitNodes != 1 {
		t.Errorf("ExitNodes = %d, want 1", s.ExitNodes)
	}
	if s.DoHMeasurements != runs || s.Do53Measurements != runs || s.DoTMeasurements != runs {
		t.Errorf("measurement counts = %d/%d/%d, want %d each",
			s.DoHMeasurements, s.Do53Measurements, s.DoTMeasurements, runs)
	}
	if s.DoTBlocked < 0 || s.DoTBlocked > runs {
		t.Errorf("DoTBlocked = %d out of range [0, %d]", s.DoTBlocked, runs)
	}
}

func TestSimStatsCountsLossEvents(t *testing.T) {
	sim := NewSim(7)
	// Crank the loss probability so a short run must sample losses;
	// the counter pointer is shared with every Path the model spawns.
	sim.Params.Latency.LossProb = 0.5
	node, err := sim.SelectExitNode("US")
	if err != nil {
		t.Fatal(err)
	}
	before := sim.Stats().LossEvents
	for i := 0; i < 20; i++ {
		sim.MeasureDoH(node, anycast.Google, "loss.a.com.")
	}
	after := sim.Stats().LossEvents
	if after <= before {
		t.Errorf("LossEvents did not advance (before=%d after=%d) despite LossProb=0.5", before, after)
	}
}

func TestSimStatsDeterministicAcrossRuns(t *testing.T) {
	run := func() SimStats {
		sim := NewSim(99)
		node, err := sim.SelectExitNode("BR")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			sim.MeasureDoH(node, anycast.Cloudflare, "d.a.com.")
			sim.MeasureSession(DoT, node, anycast.Cloudflare, "d.a.com.")
		}
		return sim.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed stats differ: %+v vs %+v", a, b)
	}
}
