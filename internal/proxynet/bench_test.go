package proxynet

import (
	"testing"

	"repro/internal/anycast"
)

// benchMeasure times one simulated measurement on a Brazilian exit node
// (the campaign's inner loop); the first call assigns the PoP, before
// the timer starts.
func benchMeasure(b *testing.B, measure func(sim *Sim, node *ExitNode)) {
	sim := NewSim(34)
	node, err := sim.SelectExitNode("BR")
	if err != nil {
		b.Fatal(err)
	}
	measure(sim, node)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure(sim, node)
	}
}

// BenchmarkMeasureDoH measures one full 22-step simulated DoH
// measurement.
func BenchmarkMeasureDoH(b *testing.B) {
	benchMeasure(b, func(sim *Sim, node *ExitNode) {
		sim.MeasureDoH(node, anycast.Cloudflare, "b.a.com.")
	})
}

// BenchmarkMeasureSession measures one simulated DoT and one simulated
// DoQ measurement.
func BenchmarkMeasureSession(b *testing.B) {
	for name, tr := range map[string]Transport{"dot": DoT, "doq": DoQ} {
		b.Run(name, func(b *testing.B) {
			benchMeasure(b, func(sim *Sim, node *ExitNode) {
				sim.MeasureSession(tr, node, anycast.Cloudflare, "b.a.com.")
			})
		})
	}
}

// BenchmarkMeasureDo53 measures one simulated Do53 measurement.
func BenchmarkMeasureDo53(b *testing.B) {
	benchMeasure(b, func(sim *Sim, node *ExitNode) {
		sim.MeasureDo53(node, "b.a.com.")
	})
}
