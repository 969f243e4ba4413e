package smart

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/resolver"
)

// Simulated candidate transports on the netsim latency model, used by
// this package's tests and proxynet's: each SimTransport models one
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
	kind  resolver.Kind
	model netsim.LatencyModel
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
func NewSimTransport(kind resolver.Kind, model netsim.LatencyModel, seed int64, timeScale float64, destOf func(q *dnswire.Message) string) *SimTransport {
	if timeScale < 1 {
		timeScale = 1
	}
	return &SimTransport{
		kind:   kind,
		model:  model,
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
	rtt := func() time.Duration { return st.model.RTT(st.rng, d.client, d.server) }
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
