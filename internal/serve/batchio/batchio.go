// Package batchio provides the platform layer under the serving
// engine's listener shards: SO_REUSEPORT socket creation and batched
// datagram I/O (recvmmsg/sendmmsg on Linux, a portable one-datagram
// loop elsewhere).
package batchio

import (
	"net"
	"net/netip"
)

// MaxDatagram is the largest UDP payload a DNS message can occupy;
// batch slots are sized to it so no legal message is truncated.
const MaxDatagram = 65535

// Batch is the server-side batched datagram surface. Read blocks for
// at least one datagram and reports how many slots it filled; Packet
// and Addr expose slot i until the next Read; Write sends the non-nil
// responses back to the matching sources. On Linux this is backed by
// recvmmsg/sendmmsg (one syscall per batch in each direction);
// elsewhere — and whenever size is 1 — a portable loop moves one
// datagram at a time. The source address is a value (IPv4 sources are
// unmapped), so none of the four calls allocates.
type Batch interface {
	Read() (int, error)
	Packet(i int) []byte
	Addr(i int) netip.AddrPort
	Write(resps [][]byte) error
}

// New returns the fastest Batch the platform offers for conn: mmsg
// batching up to size datagrams per syscall where available, the loop
// fallback otherwise. size <= 1 always selects the loop.
func New(conn *net.UDPConn, size int) Batch {
	return newBatch(conn, size)
}

// loopBatch is the portable fallback: plain blocking reads and writes,
// one datagram per call.
type loopBatch struct {
	conn *net.UDPConn
	buf  []byte
	n    int
	src  netip.AddrPort
}

func newLoopBatch(conn *net.UDPConn) *loopBatch {
	return &loopBatch{conn: conn, buf: make([]byte, MaxDatagram)}
}

func (b *loopBatch) Read() (int, error) {
	n, src, err := b.conn.ReadFromUDPAddrPort(b.buf)
	if err != nil {
		return 0, err
	}
	b.n, b.src = n, netip.AddrPortFrom(src.Addr().Unmap(), src.Port())
	return 1, nil
}

func (b *loopBatch) Packet(int) []byte       { return b.buf[:b.n] }
func (b *loopBatch) Addr(int) netip.AddrPort { return b.src }

func (b *loopBatch) Write(resps [][]byte) error {
	if len(resps) == 0 || len(resps[0]) == 0 {
		return nil
	}
	_, err := b.conn.WriteToUDPAddrPort(resps[0], b.src)
	return err
}
