package netsim

import "time"

// Handshake names what a transport pays on a path before its first
// query can leave — in the paper's Eq. 1 (DNS lookup + TCP connect + TLS
// handshake + query) the part between the lookup and the query — as a
// row of round-trip counts, so that every simulator in the tree
// (proxynet's DoH timeline and DoT/DoQ sessions, smart's SimTransport)
// charges a transport the same. A new way to establish a session, such
// as TLS 1.3 resumption or QUIC 0-RTT, is a new row, not a new timeline.
type Handshake uint8

const (
	// NoHandshake is a datagram exchange with no session (Do53).
	NoHandshake Handshake = iota
	// TCPTLS is a TCP connect followed by a full TLS 1.3 handshake
	// (RFC 8446): DoH and DoT.
	TCPTLS
	// QUIC is the QUIC 1-RTT handshake (RFC 9000 §7), the TLS exchange
	// riding the packets that establish the transport: DoQ (RFC 9250).
	QUIC
)

// handshakes is the table: round trips that establish the transport
// alone, round trips of key exchange, and how many more of those a
// legacy peer needs — TLS 1.2's second flight (RFC 5246), or on QUIC,
// which has no TLS 1.2, a HelloRetryRequest-style extra exchange.
var handshakes = [...]struct{ transport, crypto, legacy int }{
	NoHandshake: {0, 0, 0},
	TCPTLS:      {1, 1, 1},
	QUIC:        {0, 1, 1},
}

// RoundTrips returns the row's transport and key-exchange round trips.
func (h Handshake) RoundTrips(legacy bool) (transport, crypto int) {
	row := handshakes[h]
	if legacy {
		return row.transport, row.crypto + row.legacy
	}
	return row.transport, row.crypto
}

// Draw samples the two phases from rtt, one call per round trip: the
// transport's first, then the key exchange's, plus CryptoCompute.
// proxynet's pinned random stream relies on that order.
func (h Handshake) Draw(legacy bool, rtt func() time.Duration) (connect, crypto time.Duration) {
	nt, nc := h.RoundTrips(legacy)
	for i := 0; i < nt; i++ {
		connect += rtt()
	}
	if nc > 0 {
		crypto = CryptoCompute
	}
	for i := 0; i < nc; i++ {
		crypto += rtt()
	}
	return connect, crypto
}
