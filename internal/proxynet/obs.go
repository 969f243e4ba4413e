package proxynet

import (
	"sync/atomic"

	"repro/internal/anycast"
	"repro/internal/obs"
)

// Observability wiring for the simulator: Instrument attaches a Sim to
// a metrics registry (and optionally a trace recorder), after which
// every measurement feeds loss/block/step-timing events into the same
// registry the resolver stack and the campaign write to —
// proxynet_* metric names, ground-truth values.

// StepLabels names the paper's Figure-2 steps, t1..t22 at indexes
// 1..22 (index 0 unused). Shared by the trace recorder and the
// worldstudy -timeline printer.
var StepLabels = [23]string{
	1:  "client -> Super Proxy (CONNECT)",
	2:  "Super Proxy -> exit node",
	3:  "exit -> ISP resolver (DoH hostname)",
	4:  "ISP resolver -> exit",
	5:  "exit -> DoH PoP (TCP SYN)",
	6:  "DoH PoP -> exit (SYN-ACK)",
	7:  "exit -> Super Proxy",
	8:  "Super Proxy -> client (200 OK)",
	9:  "client -> Super Proxy (ClientHello)",
	10: "Super Proxy -> exit",
	11: "exit -> DoH PoP (ClientHello)",
	12: "DoH PoP -> exit (ServerHello, TLS 1.3)",
	13: "exit -> Super Proxy",
	14: "Super Proxy -> client",
	15: "client -> Super Proxy (Finished + GET)",
	16: "Super Proxy -> exit",
	17: "exit -> DoH PoP (query)",
	18: "DoH PoP -> authoritative NS",
	19: "authoritative NS -> DoH PoP",
	20: "DoH PoP -> exit (answer)",
	21: "exit -> Super Proxy",
	22: "Super Proxy -> client",
}

// simInstruments holds the registry handles an instrumented Sim writes
// through. All handles are resolved once in Instrument; the
// measurement path only touches atomics.
type simInstruments struct {
	tracer *obs.TraceRecorder

	loss     *obs.Counter
	measDoH  *obs.Counter
	measDo53 *obs.Counter

	chaosResets   *obs.Counter
	chaosChurns   *obs.Counter
	chaosCorrupts *obs.Counter

	dohTotal, dohReused                      *obs.Histogram
	dohDNS, dohConnect, dohTLS, dohRoundTrip *obs.Histogram
	do53Total                                *obs.Histogram

	// sessions holds the extension transports' handles, one entry per
	// sessionProfiles row.
	sessions [NumTransports]struct {
		measured, blocked *obs.Counter
		first, reused     *obs.Histogram
	}
}

// Instrument attaches the simulator to reg: loss events, DoT and DoQ
// port-853 blocks, per-transport measurement counts, and ground-truth
// phase timings are recorded under proxynet_* names. tracer, when non-nil,
// receives the full 22-step Figure-2 timeline of every DoH
// measurement.
//
// Call Instrument before the first measurement. Every measurement
// builds its session paths from the model as it stands then, so the
// simulator's own measurements follow the switch at once and loss
// events counted before the call are carried over into the registry;
// but a netsim.Path a caller built from s.Model earlier keeps the
// counter it was built with, which Stats no longer reads. Instrument is
// not safe to call concurrently with measurements.
func (s *Sim) Instrument(reg *obs.Registry, tracer *obs.TraceRecorder) {
	in := &simInstruments{
		tracer:   tracer,
		loss:     reg.Counter("proxynet_loss_events_total"),
		measDoH:  reg.Counter("proxynet_doh_measurements_total"),
		measDo53: reg.Counter("proxynet_do53_measurements_total"),

		chaosResets:   reg.Counter("proxynet_chaos_resets_total"),
		chaosChurns:   reg.Counter("proxynet_chaos_churns_total"),
		chaosCorrupts: reg.Counter("proxynet_chaos_header_corruptions_total"),

		dohTotal:     reg.Histogram("proxynet_doh_ms", nil),
		dohReused:    reg.Histogram("proxynet_dohr_ms", nil),
		dohDNS:       reg.Histogram("proxynet_doh_dns_lookup_ms", nil),
		dohConnect:   reg.Histogram("proxynet_doh_connect_ms", nil),
		dohTLS:       reg.Histogram("proxynet_doh_tls_handshake_ms", nil),
		dohRoundTrip: reg.Histogram("proxynet_doh_round_trip_ms", nil),
		do53Total:    reg.Histogram("proxynet_do53_ms", nil),
	}
	for tr := range in.sessions {
		name := "proxynet_" + sessionProfiles[tr].name
		h := &in.sessions[tr]
		h.measured = reg.Counter(name + "_measurements_total")
		h.blocked = reg.Counter(name + "_blocked_total")
		h.first = reg.Histogram(name+"_ms", nil)
		h.reused = reg.Histogram(name+"r_ms", nil)
	}
	// The registry counter becomes the single source of truth for loss
	// events (Stats reads it back through lossPtr); earlier counts are
	// carried over so deltas stay monotonic.
	in.loss.Add(atomic.LoadInt64(s.lossPtr))
	s.lossPtr = in.loss.Raw()
	s.Model.LossCounter = s.lossPtr
	s.instr = in
}

// recordDoH feeds one DoH measurement's ground truth into the registry
// and, when a tracer is attached, records the 22-step timeline.
func (in *simInstruments) recordDoH(pid anycast.ProviderID, queryName string, obs22 DoHObservation, gt DoHGroundTruth) {
	if in == nil {
		return
	}
	in.measDoH.Inc()
	in.dohTotal.Observe(gt.TDoH)
	in.dohReused.Observe(gt.TDoHR)
	in.dohDNS.Observe(gt.Steps[3] + gt.Steps[4])
	in.dohConnect.Observe(gt.Steps[5] + gt.Steps[6])
	in.dohTLS.Observe(gt.Steps[11] + gt.Steps[12])
	in.dohRoundTrip.Observe(gt.Steps[17] + gt.Steps[18] + gt.Steps[19] + gt.Steps[20])
	if in.tracer == nil {
		return
	}
	events := make([]obs.TraceEvent, 0, 22)
	for i := 1; i <= 22; i++ {
		events = append(events, obs.TraceEvent{Step: i, Label: StepLabels[i], Duration: gt.Steps[i]})
	}
	in.tracer.Record(obs.Trace{
		ID:     string(pid) + "/" + queryName,
		Kind:   "doh",
		Events: events,
		Total:  obs22.TD - obs22.TA,
	})
}

// recordDo53 feeds one Do53 measurement into the registry. Super-Proxy
// resolutions carry no usable exit-side timing and are only counted.
func (in *simInstruments) recordDo53(viaSuperProxy bool, gt Do53GroundTruth) {
	if in == nil {
		return
	}
	in.measDo53.Inc()
	if !viaSuperProxy {
		in.do53Total.Observe(gt.TDo53)
	}
}

// recordSession feeds one DoT or DoQ measurement into the registry. A
// port-853 block still counts as a measurement attempted; it has no
// timings to observe.
func (in *simInstruments) recordSession(tr Transport, blocked bool, gt SessionGroundTruth) {
	if in == nil {
		return
	}
	h := &in.sessions[tr]
	h.measured.Inc()
	if blocked {
		h.blocked.Inc()
		return
	}
	h.first.Observe(gt.First)
	h.reused.Observe(gt.Reused)
}

// recordChaos counts an injected failure by mode.
func (in *simInstruments) recordChaos(ev chaosEvent) {
	if in == nil {
		return
	}
	switch ev {
	case chaosReset:
		in.chaosResets.Inc()
	case chaosChurn:
		in.chaosChurns.Inc()
	case chaosCorrupt:
		in.chaosCorrupts.Inc()
	}
}
