package serve

import (
	"net/netip"
	"sync"
	"time"
)

// DNS response rate limiting (RRL) at the engine layer. Spoofed-source
// UDP floods turn any DNS server into an amplification reflector, and
// an unlimited server under a flood starves its legitimate clients.
// The limiter token-buckets responses per masked source prefix — /24
// for IPv4, /56 for IPv6, the granularity BIND's RRL uses so one
// attacker cannot rotate through a /24 to dodge the bucket — and
// resolves each over-limit query to one of two verdicts: drop (the
// spoofed victim stops receiving traffic) or slip (a TC=1 answer so a
// real client sharing the limited prefix retries over TCP, where the
// handshake proves its address). Stream transports are never limited.

// rrlVerdict is the limiter's decision for one query.
type rrlVerdict uint8

const (
	rrlSend   rrlVerdict = iota // under limit: answer normally
	rrlDrop                     // over limit: drop silently
	rrlSlipTC                   // over limit: answer TC=1
)

type rrlBucket struct {
	tokens  float64
	last    time.Time
	limited uint64 // consecutive over-limit queries (drives the slip cadence)
}

// rrlLimiter is a per-source-prefix token bucket with slip. All state
// sits behind one mutex: the limiter only runs when explicitly enabled,
// and a map lookup under an uncontended mutex is far below the cost of
// the socket write it gates.
type rrlLimiter struct {
	rate  float64
	burst float64
	slip  int // every slip'th over-limit query slips; <=0 never slips

	mu      sync.Mutex
	buckets map[netip.Addr]*rrlBucket
	now     func() time.Time // test clock; time.Now outside tests
}

// maxRRLBuckets bounds the table under spoofed-source floods; beyond
// it, stale buckets are evicted opportunistically on insert.
const maxRRLBuckets = 1 << 16

func newRRLLimiter(rate, burst float64, slip int) *rrlLimiter {
	if burst <= 0 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	if slip == 0 {
		slip = DefaultRateSlip
	}
	return &rrlLimiter{
		rate:    rate,
		burst:   burst,
		slip:    slip,
		buckets: make(map[netip.Addr]*rrlBucket),
		now:     time.Now,
	}
}

// rrlKey masks ip to its RRL prefix. The masked address (not a
// netip.Prefix) is the map key: same information, smaller key.
func rrlKey(ip netip.Addr) (netip.Addr, bool) {
	ip = ip.Unmap()
	bits := 24
	if ip.Is6() {
		bits = 56
	}
	p, err := ip.Prefix(bits)
	if err != nil {
		return netip.Addr{}, false
	}
	return p.Addr(), true
}

// verdict classifies one query from src. Unbucketable addresses fail
// open: rate limiting defends the server, it must never invent outages.
func (l *rrlLimiter) verdict(src netip.Addr) rrlVerdict {
	key, ok := rrlKey(src)
	if !ok {
		return rrlSend
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) > maxRRLBuckets {
			for k, old := range l.buckets {
				if now.Sub(old.last) > time.Minute {
					delete(l.buckets, k)
				}
			}
		}
		b = &rrlBucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		b.limited = 0
		return rrlSend
	}
	b.limited++
	if l.slip > 0 && b.limited%uint64(l.slip) == 0 {
		return rrlSlipTC
	}
	return rrlDrop
}
