package proxynet

import (
	"reflect"
	"testing"

	"repro/internal/anycast"
	"repro/internal/obs"
)

// TestInstrumentedSimFeedsRegistry checks that an instrumented Sim's
// registry view agrees with its native Stats() accounting and that the
// trace recorder captures the full 22-step DoH timeline.
func TestInstrumentedSimFeedsRegistry(t *testing.T) {
	sim := NewSim(42)
	reg := obs.NewRegistry()
	tracer := obs.NewTraceRecorder(16)
	sim.Instrument(reg, tracer)

	node, err := sim.SelectExitNode("BR")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sim.MeasureDoH(node, anycast.Cloudflare, "q.a.com.")
	}
	sim.MeasureDo53(node, "q.a.com.")
	for i := 0; i < 40; i++ {
		sim.MeasureSession(DoT, node, anycast.Cloudflare, "q.a.com.")
	}

	st := sim.Stats()
	checks := []struct {
		name string
		want int64
	}{
		{"proxynet_doh_measurements_total", st.DoHMeasurements},
		{"proxynet_do53_measurements_total", st.Do53Measurements},
		{"proxynet_dot_measurements_total", st.DoTMeasurements},
		{"proxynet_dot_blocked_total", st.DoTBlocked},
		{"proxynet_loss_events_total", st.LossEvents},
	}
	for _, c := range checks {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d (Stats)", c.name, got, c.want)
		}
	}
	if st.DoHMeasurements != 3 || st.Do53Measurements != 1 || st.DoTMeasurements != 40 {
		t.Fatalf("unexpected measurement counts: %+v", st)
	}

	if got := reg.Histogram("proxynet_doh_ms", nil).Count(); got != 3 {
		t.Errorf("proxynet_doh_ms count = %d, want 3", got)
	}
	if got := reg.Histogram("proxynet_doh_tls_handshake_ms", nil).Count(); got != 3 {
		t.Errorf("proxynet_doh_tls_handshake_ms count = %d, want 3", got)
	}
	// BR is not a Super-Proxy country, so the Do53 ground truth lands
	// in the histogram.
	if got := reg.Histogram("proxynet_do53_ms", nil).Count(); got != 1 {
		t.Errorf("proxynet_do53_ms count = %d, want 1", got)
	}
	// Only unblocked DoT runs carry timing.
	unblocked := st.DoTMeasurements - st.DoTBlocked
	if got := reg.Histogram("proxynet_dot_ms", nil).Count(); got != unblocked {
		t.Errorf("proxynet_dot_ms count = %d, want %d unblocked", got, unblocked)
	}

	if tracer.Recorded() != 3 {
		t.Fatalf("tracer recorded %d traces, want 3", tracer.Recorded())
	}
	tr, ok := tracer.Last()
	if !ok {
		t.Fatal("tracer.Last returned nothing")
	}
	if len(tr.Events) != 22 {
		t.Fatalf("trace has %d events, want 22", len(tr.Events))
	}
	if tr.Kind != "doh" || tr.ID != "cloudflare/q.a.com." {
		t.Errorf("trace identity = %q/%q", tr.Kind, tr.ID)
	}
	for i, ev := range tr.Events {
		if ev.Step != i+1 || ev.Label != StepLabels[i+1] {
			t.Fatalf("event %d = step %d label %q, want step %d label %q",
				i, ev.Step, ev.Label, i+1, StepLabels[i+1])
		}
	}
	if tr.Sum() <= 0 {
		t.Error("trace step durations sum to zero")
	}
}

// TestInstrumentCarriesOverLosses checks that loss events counted
// before Instrument are not lost and that the redirect leaves the two
// views (Stats and registry) identical afterwards.
func TestInstrumentCarriesOverLosses(t *testing.T) {
	sim := NewSim(7)
	sim.Model.LossProb = 0.2 // force plenty of loss events
	node, err := sim.SelectExitNode("BR")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sim.MeasureDoH(node, anycast.Google, "pre.a.com.")
	}
	before := sim.Stats().LossEvents
	if before == 0 {
		t.Fatal("no loss events before Instrument; raise LossProb")
	}

	reg := obs.NewRegistry()
	sim.Instrument(reg, nil)
	if got := reg.Counter("proxynet_loss_events_total").Value(); got != before {
		t.Fatalf("carried-over losses = %d, want %d", got, before)
	}
	// Fresh paths after Instrument write to the registry counter, and
	// Stats reads it back: one number, two views.
	for i := 0; i < 5; i++ {
		sim.MeasureDoH(node, anycast.Google, "post.a.com.")
	}
	after := sim.Stats().LossEvents
	if after <= before {
		t.Fatalf("losses did not grow after Instrument: %d -> %d", before, after)
	}
	if got := reg.Counter("proxynet_loss_events_total").Value(); got != after {
		t.Fatalf("registry losses = %d, Stats = %d; views diverged", got, after)
	}
}

// TestInstrumentedSimDeterministic checks the ISSUE 2 acceptance
// criterion at the simulator layer: same seed, same snapshot.
func TestInstrumentedSimDeterministic(t *testing.T) {
	run := func() obs.Snapshot {
		sim := NewSim(99)
		reg := obs.NewRegistry()
		sim.Instrument(reg, nil)
		node, err := sim.SelectExitNode("DE")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			sim.MeasureDoH(node, anycast.Quad9, "d.a.com.")
			sim.MeasureDo53(node, "d.a.com.")
			sim.MeasureSession(DoT, node, anycast.Quad9, "d.a.com.")
		}
		return reg.Snapshot()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("instrumented sim snapshots differ across same-seed runs")
	}
}

// TestUninstrumentedSimUnchanged pins that a Sim without Instrument
// behaves exactly as before the observability layer existed.
func TestUninstrumentedSimUnchanged(t *testing.T) {
	sim := NewSim(5)
	node, err := sim.SelectExitNode("US")
	if err != nil {
		t.Fatal(err)
	}
	sim.MeasureDoH(node, anycast.Cloudflare, "u.a.com.")
	if st := sim.Stats(); st.DoHMeasurements != 1 {
		t.Fatalf("DoHMeasurements = %d, want 1", st.DoHMeasurements)
	}
}
