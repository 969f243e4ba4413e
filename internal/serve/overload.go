package serve

import (
	"context"
	"net"
	"net/netip"
	"time"
)

// Overload protection. A production resolver's defining property under
// hostile or simply excessive traffic is not raw speed but bounded
// degradation: accepted queries keep their latency contract, excess
// load is refused cheaply and visibly, and no single misbehaving
// client — or handler bug — can take the process down. The engine
// implements four independent defenses, all off by default so the
// unprotected fast path is byte-for-byte the pre-protection one:
//
//   - Admission control (MaxInflight): a bounded in-flight budget
//     across both transports. Over budget, DNS-shaped queries get an
//     immediate SERVFAIL built from the query's own header (cheap: no
//     handler, no parse); non-DNS payloads are dropped. Shed queries
//     count in serve_shed_total and never reach the handler.
//   - Response rate limiting (RateLimit): DNS RRL-style token buckets
//     keyed by masked source prefix (/24 v4, /56 v6) on UDP only — a
//     completed TCP handshake proves the source address. Over-limit
//     queries are dropped, except every RateSlip'th one, which is
//     answered with TC=1 so a legitimate client behind the same prefix
//     as an attacker retries over TCP instead of going dark.
//   - Stream governance: MaxConns caps concurrent connections,
//     MaxFrameBytes rejects oversized frames before buffering them,
//     StreamWriteTimeout unsticks writers pinned by slow readers, and
//     StreamReadTimeout paces the body of an announced frame
//     (slowloris). Frames on one connection are served in order.
//   - Panic recovery: a handler panic is converted into SERVFAIL plus
//     serve_panic_total instead of a crash. This one is always on.
//
// The degradation contract (bounded accepted-query latency, exact
// shed+answered+ratelimited accounting, clean drain mid-overload) is
// pinned by TestOverloadSoak.

// Protection bundles the engine's overload-protection knobs. It is
// embedded in Options; the zero value disables every defense except
// panic recovery, leaving the engine's behavior unchanged.
type Protection struct {
	// MaxInflight caps queries concurrently admitted to handlers
	// (queued dispatch work counts as in flight). 0 means unlimited.
	// Over budget, DNS-shaped queries are answered SERVFAIL without
	// invoking the handler and counted in serve_shed_total; payloads
	// too short to carry a DNS header are dropped. The current
	// admitted count is exported as the serve_inflight gauge.
	MaxInflight int

	// RateLimit, when positive, enables DNS RRL-style response rate
	// limiting on UDP: at most this many responses/second per masked
	// source prefix (/24 for IPv4, /56 for IPv6, BIND's granularity).
	// Over-limit queries are dropped (serve_ratelimit_dropped_total)
	// except for the slip fraction below. TCP is exempt.
	RateLimit float64
	// RateBurst is the token-bucket depth; 0 uses RateLimit.
	RateBurst float64
	// RateSlip answers every RateSlip'th over-limit query with a
	// minimal TC=1 response (serve_ratelimit_slipped_total) so
	// legitimate clients sharing a limited prefix retry over TCP.
	// 0 uses DefaultRateSlip; negative never slips.
	RateSlip int

	// MaxConns caps concurrent stream connections; over the cap,
	// accepted connections are closed immediately and counted in
	// serve_conns_rejected_total. 0 means unlimited.
	MaxConns int
	// MaxFrameBytes caps the request frame length a stream connection
	// may announce. An oversize frame closes the connection before its
	// body is buffered (serve_frame_oversize_total). 0 means the
	// framing maximum, 64 KiB - 1.
	MaxFrameBytes int

	// StreamWriteTimeout bounds each response write so a client that
	// stops reading cannot pin a connection goroutine forever once the
	// kernel buffers fill. 0 uses the 30 s idle timeout; negative disables
	// the deadline.
	StreamWriteTimeout time.Duration
	// StreamReadTimeout, when positive, bounds reading the body of a
	// frame whose length header has arrived, so a client dribbling one
	// byte per idle-timeout cannot hold the connection indefinitely
	// (slowloris pacing). 0 keeps only the idle deadline.
	StreamReadTimeout time.Duration
}

// DefaultRateSlip matches BIND's RRL default: every 2nd over-limit
// query is answered TC=1 instead of dropped.
const DefaultRateSlip = 2

// admit tries to take one slot of the in-flight budget. With no budget
// configured it is a no-op returning true. On refusal it counts the
// shed query; the caller must answer or drop it without invoking the
// handler (and must NOT release).
func (s *Server) admit() bool {
	max := int64(s.opts.MaxInflight)
	if max <= 0 {
		return true
	}
	n := s.inflight.Add(1)
	if n > max {
		s.inflight.Add(-1)
		s.metrics.shed.Inc()
		return false
	}
	s.metrics.inflightG.Set(float64(n))
	return true
}

// release returns one admitted query's budget slot.
func (s *Server) release() {
	if s.opts.MaxInflight <= 0 {
		return
	}
	s.metrics.inflightG.Set(float64(s.inflight.Add(-1)))
}

// servePacketChecked invokes the packet handler with panic recovery: a
// panicking handler yields SERVFAIL (or a drop for non-DNS payloads)
// and increments serve_panic_total instead of killing the process.
func (s *Server) servePacketChecked(ctx context.Context, out, raw []byte, src netip.AddrPort) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Inc()
			s.logf("serve: packet handler panic: %v", r)
			resp, err = appendServFail(out[:0], raw), nil
		}
	}()
	return s.opts.Packet.ServePacket(ctx, out, raw, src)
}

// serveMessageChecked is servePacketChecked for the stream handler.
func (s *Server) serveMessageChecked(ctx context.Context, out, raw []byte, src net.Addr) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Inc()
			s.logf("serve: stream handler panic: %v", r)
			resp, err = appendServFail(out[:0], raw), nil
		}
	}()
	return s.opts.Stream.ServeMessage(ctx, out, raw, src)
}

// DNS header byte offsets and flag bits used by the synthesized
// responses. The engine is otherwise payload-agnostic; these are the
// only wire-format facts it knows, and only the protection paths use
// them.
const (
	headerLen = 12
	flagQR    = 0x80 // byte 2: response
	flagTC    = 0x02 // byte 2: truncated
	maskOp    = 0x78 // byte 2: opcode (preserved)
	flagRD    = 0x01 // byte 2: recursion desired (preserved)
	rcodeServ = 0x02 // byte 3 low nibble: SERVFAIL
)

// appendEcho synthesizes a minimal response by echoing the raw query —
// ID, opcode, RD, question section, and any EDNS OPT intact — with QR
// set, AA cleared, and the given TC bit and RCODE. It returns nil when
// raw cannot carry a DNS header, in which case the caller drops.
func appendEcho(dst, raw []byte, tc bool, rcode byte) []byte {
	if len(raw) < headerLen {
		return nil
	}
	n := len(dst)
	dst = append(dst, raw...)
	h := dst[n:]
	h[2] = h[2]&(maskOp|flagRD) | flagQR
	if tc {
		h[2] |= flagTC
	}
	h[3] = rcode // clears RA and Z; the shed path asserts nothing else
	return dst
}

// appendServFail builds the load-shedding (and panic-recovery) answer:
// the query echoed with QR set and RCODE=SERVFAIL.
func appendServFail(dst, raw []byte) []byte {
	return appendEcho(dst, raw, false, rcodeServ)
}

// appendTruncated builds the RRL slip answer: the query echoed with
// QR|TC set and RCODE=NOERROR, inviting a retry over TCP.
func appendTruncated(dst, raw []byte) []byte {
	return appendEcho(dst, raw, true, 0)
}
