package core_test

import (
	"fmt"

	"repro/internal/anycast"
	"repro/internal/core"
	"repro/internal/proxynet"
)

// ExampleEstimateDoH runs one simulated measurement through the proxy
// network and recovers the exit node's DoH time from client-side
// observables only, comparing against the simulator's ground truth.
func ExampleEstimateDoH() {
	sim := proxynet.NewSim(7)
	sim.Params.Latency.JitterSigma = 0
	sim.Params.Latency.PacketSigma = 0
	sim.Params.Latency.LossProb = 0

	node, err := sim.SelectExitNode("IT")
	if err != nil {
		panic(err)
	}
	obs, gt := sim.MeasureDoH(node, anycast.Cloudflare, "uuid-1.a.com.")
	est, err := core.EstimateDoH(obs)
	if err != nil {
		panic(err)
	}
	// With jitter disabled the estimator is exact to the millisecond.
	fmt.Printf("estimate == truth: %v\n", est.TDoH.Round(1e6) == gt.TDoH.Round(1e6))
	// Output: estimate == truth: true
}
