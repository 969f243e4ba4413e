package smart

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/world"
)

// Simulated candidate transports on the netsim latency model, used by
// this package's tests: each SimTransport models one
// wire protocol's timeline (handshakes, reuse, per-destination paths)
// between a per-destination client endpoint and a server endpoint,
// sleeping the modeled time scaled down by TimeScale (a large enough
// scale sleeps not at all). The returned Timing carries the unscaled
// modeled durations, which is what the smart EWMA scores and the
// tests' percentiles read.
//
// What a kind pays on first contact is its row of netsim's handshake
// table, which proxynet's campaign simulator charges too: DoH and DoT a
// TCP connect and a TLS 1.3 round trip, DoQ the one combined round trip
// of QUIC's handshake (RFC 9250 over RFC 9000), Do53 nothing. Reuse is
// the bare exchange for all of them.

// simHandshakes maps a kind to its row; an unlisted kind has no session.
var simHandshakes = map[resolver.Kind]netsim.Handshake{
	resolver.DoH: netsim.TCPTLS,
	resolver.DoT: netsim.TCPTLS,
	resolver.DoQ: netsim.QUIC,
}

// simDest is one destination's endpoints as a transport sees them.
type simDest struct {
	client  netsim.Endpoint
	server  netsim.Endpoint
	service time.Duration
	warm    bool
}

// SimTransport is a resolver.Resolver modeling one transport kind on
// netsim paths. Destinations are registered up front; DestOf extracts
// the destination label from the query (nil means a single unnamed
// destination). Safe for concurrent use.
type SimTransport struct {
	kind   resolver.Kind
	params netsim.Params
	// scale divides modeled durations for the real sleep (>= 1).
	scale float64
	// destOf labels queries; nil means "".
	destOf func(q *dnswire.Message) string

	mu    sync.Mutex
	rng   *rand.Rand
	dests map[string]*simDest
}

// NewSimTransport builds a simulated transport of the given kind.
// timeScale >= 1 divides modeled time for the actual sleep (1 = real
// time); destOf may be nil for a single-destination transport.
func NewSimTransport(kind resolver.Kind, params netsim.Params, seed int64, timeScale float64, destOf func(q *dnswire.Message) string) *SimTransport {
	if timeScale < 1 {
		timeScale = 1
	}
	return &SimTransport{
		kind:   kind,
		params: params,
		scale:  timeScale,
		destOf: destOf,
		rng:    rand.New(rand.NewSource(seed)),
		dests:  make(map[string]*simDest),
	}
}

// AddDestination registers a destination label with the client-side
// endpoint, this transport's server endpoint, and the server's service
// time for one query.
func (st *SimTransport) AddDestination(label string, client, server netsim.Endpoint, service time.Duration) {
	st.mu.Lock()
	st.dests[label] = &simDest{client: client, server: server, service: service}
	st.mu.Unlock()
}

// Kind returns the modeled transport kind.
func (st *SimTransport) Kind() resolver.Kind { return st.kind }

// Resolve models one exchange: sample the protocol timeline for the
// query's destination, sleep the scaled wall time (honoring ctx, so a
// lost race cancels promptly), and answer with the query's reply.
func (st *SimTransport) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, resolver.Timing, error) {
	label := ""
	if st.destOf != nil {
		label = st.destOf(q)
	}
	st.mu.Lock()
	d := st.dests[label]
	if d == nil {
		st.mu.Unlock()
		return nil, resolver.Timing{Attempts: 1}, fmt.Errorf("smart: simtransport %s: unknown destination %q", st.kind, label)
	}
	t := st.sampleLocked(d)
	st.mu.Unlock()

	wall := time.Duration(float64(t.Total) / st.scale)
	if wall > 0 {
		timer := time.NewTimer(wall)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			// Cancelled mid-exchange: the session never established, so
			// the destination stays cold for this transport.
			return nil, resolver.Timing{Attempts: 1}, ctx.Err()
		}
	}
	st.mu.Lock()
	d.warm = true
	st.mu.Unlock()
	return q.Reply(), t, nil
}

// sampleLocked draws one exchange's modeled timeline. Caller holds mu.
func (st *SimTransport) sampleLocked(d *simDest) resolver.Timing {
	rtt := func() time.Duration { return st.params.Latency.RTT(st.rng, d.client, d.server) }
	t := resolver.Timing{Attempts: 1}
	if hs := simHandshakes[st.kind]; !d.warm {
		t.Connect, t.TLSHandshake = hs.Draw(false, rtt)
	} else if hs != netsim.NoHandshake {
		t.Reused = true
	}
	t.RoundTrip = rtt() + d.service
	t.Total = t.Connect + t.TLSHandshake + t.RoundTrip
	return t
}

func simEndpoints() (client, server netsim.Endpoint) {
	us := world.MustByCode("US")
	client = netsim.Endpoint{Pos: geo.Point{Lat: 39.04, Lon: -77.49}, Country: us, Residential: true}
	server = netsim.Endpoint{Pos: geo.Point{Lat: 40.7, Lon: -74.0}, Country: us}
	return
}

func newSim(t *testing.T, kind resolver.Kind) *SimTransport {
	t.Helper()
	c, srv := simEndpoints()
	st := NewSimTransport(kind, netsim.DefaultParams(), 7, 1e6, nil)
	st.AddDestination("", c, srv, 0)
	return st
}

// TestSimTransportProtocolTimelines checks each kind's modeled cost
// structure: Do53 pays no setup; DoH/DoT pay TCP connect plus a TLS
// round trip cold and nothing warm; DoQ's QUIC handshake folds
// transport and crypto into a single round trip cold — strictly one
// RTT cheaper than DoT on the same path — and resumes 0-RTT warm.
func TestSimTransportProtocolTimelines(t *testing.T) {
	q := resolver.Query(dnswire.NewName("sim.a.com."), dnswire.TypeA)
	for _, kind := range []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT, resolver.DoQ} {
		st := newSim(t, kind)
		_, cold, err := st.Resolve(context.Background(), q)
		if err != nil {
			t.Fatalf("%s cold: %v", kind, err)
		}
		if cold.Reused {
			t.Errorf("%s first exchange marked reused", kind)
		}
		switch kind {
		case resolver.Do53:
			if cold.Connect != 0 || cold.TLSHandshake != 0 {
				t.Errorf("do53 cold paid setup: %+v", cold)
			}
		case resolver.DoH, resolver.DoT:
			if cold.Connect == 0 || cold.TLSHandshake == 0 {
				t.Errorf("%s cold skipped a handshake phase: %+v", kind, cold)
			}
		case resolver.DoQ:
			if cold.Connect != 0 {
				t.Errorf("doq cold paid a separate transport connect: %+v", cold)
			}
			if cold.TLSHandshake == 0 {
				t.Errorf("doq cold skipped the combined handshake: %+v", cold)
			}
		}
		if cold.Total != cold.Connect+cold.TLSHandshake+cold.RoundTrip {
			t.Errorf("%s Total does not sum phases: %+v", kind, cold)
		}
		_, warm, err := st.Resolve(context.Background(), q)
		if err != nil {
			t.Fatalf("%s warm: %v", kind, err)
		}
		if kind != resolver.Do53 {
			if !warm.Reused {
				t.Errorf("%s second exchange not reused: %+v", kind, warm)
			}
			if warm.Connect != 0 || warm.TLSHandshake != 0 {
				t.Errorf("%s warm exchange paid setup again: %+v", kind, warm)
			}
		}
	}

	// On a jitter-free path a cold exchange charges its row of netsim's
	// handshake table in round trips, the rows proxynet's campaign
	// simulator charges (its TestMeasureSessionRows).
	params := netsim.DefaultParams()
	params.Latency.JitterSigma, params.Latency.LossProb = 0, 0
	c, srv := simEndpoints()
	rtt := params.Latency.MeanOneWay(c, srv) + params.Latency.MeanOneWay(srv, c)
	for _, r := range []struct {
		kind resolver.Kind
		row  netsim.Handshake
	}{{resolver.DoH, netsim.TCPTLS}, {resolver.DoT, netsim.TCPTLS}, {resolver.DoQ, netsim.QUIC}} {
		st := NewSimTransport(r.kind, params, 7, 1e6, nil)
		st.AddDestination("", c, srv, 0)
		_, cold, err := st.Resolve(context.Background(), q)
		if err != nil {
			t.Fatalf("%s jitter-free cold: %v", r.kind, err)
		}
		nt, nc := r.row.RoundTrips(false)
		if cold.Connect != time.Duration(nt)*rtt || cold.TLSHandshake-netsim.CryptoCompute != time.Duration(nc)*rtt {
			t.Errorf("%s cold charges connect %v, tls %v; want %d + %d round trips of %v plus %v",
				r.kind, cold.Connect, cold.TLSHandshake, nt, nc, rtt, netsim.CryptoCompute)
		}
	}
}

// TestSimTransportDoQColdOneRoundTripCheaper compares DoQ and DoT cold
// starts on identical paths with identical RTT draws (same seed): the
// QUIC handshake must cost exactly the TCP connect RTT less.
func TestSimTransportDoQColdOneRoundTripCheaper(t *testing.T) {
	q := resolver.Query(dnswire.NewName("sim.a.com."), dnswire.TypeA)
	dot := newSim(t, resolver.DoT)
	_, dotT, err := dot.Resolve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	doq := newSim(t, resolver.DoQ)
	_, doqT, err := doq.Resolve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed: DoT draws connect, tls, roundtrip; DoQ draws tls,
	// roundtrip from the same sequence — its handshake equals DoT's
	// connect draw plus compute, so DoQ total = DoT total - one RTT
	// (modulo which draw each phase consumed; assert the ordering, not
	// the exact delta).
	if doqT.Total >= dotT.Total {
		t.Errorf("doq cold (%v) not cheaper than dot cold (%v)", doqT.Total, dotT.Total)
	}
}

func TestSimTransportCancellationKeepsCold(t *testing.T) {
	c, srv := simEndpoints()
	// Real time scale: the modeled exchange takes tens of milliseconds,
	// so an already-cancelled context must win the select.
	st := NewSimTransport(resolver.DoT, netsim.DefaultParams(), 7, 1, nil)
	st.AddDestination("", c, srv, 0)
	q := resolver.Query(dnswire.NewName("sim.a.com."), dnswire.TypeA)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := st.Resolve(ctx, q); err == nil {
		t.Fatal("cancelled resolve succeeded")
	}
	// The aborted exchange must not have warmed the session.
	st.scale = 1e6
	_, timing, err := st.Resolve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if timing.Reused || timing.Connect == 0 {
		t.Errorf("destination warm after a cancelled exchange: %+v", timing)
	}
}

func TestSimTransportUnknownDestination(t *testing.T) {
	st := NewSimTransport(resolver.Do53, netsim.DefaultParams(), 1, 1e6,
		func(q *dnswire.Message) string { return "nope" })
	q := resolver.Query(dnswire.NewName("sim.a.com."), dnswire.TypeA)
	if _, _, err := st.Resolve(context.Background(), q); err == nil {
		t.Fatal("unknown destination resolved")
	}
}
