package serve

import (
	"errors"
	"net"
	"net/netip"

	"repro/internal/deadline"
	"repro/internal/dnswire"
)

// maxDatagram is the largest UDP payload a DNS message can occupy; a
// listener's read buffer is sized to it so no legal message is
// truncated.
const maxDatagram = 65535

// packetLoop is one UDP listener shard: it reads one datagram per
// syscall and answers it either inline (CPU-bound handlers) or through
// a dispatch pool (blocking handlers).
func (s *Server) packetLoop(idx int, conn *net.UDPConn) {
	defer s.wg.Done()
	if s.opts.Concurrency > 0 {
		s.packetDispatchLoop(idx, conn)
		return
	}
	s.packetInlineLoop(conn)
}

// readPacket blocks for the next datagram and reads it into buf; the
// source comes back as a value, IPv4 sources unmapped. done reports
// that the listener must stop.
func (s *Server) readPacket(conn *net.UDPConn, buf []byte) (raw []byte, src netip.AddrPort, done bool) {
	for errStreak := 0; ; {
		n, from, err := conn.ReadFromUDPAddrPort(buf)
		if err == nil {
			s.metrics.packets.Inc()
			return buf[:n], netip.AddrPortFrom(from.Addr().Unmap(), from.Port()), false
		}
		if s.draining.Load() || errors.Is(err, net.ErrClosed) {
			return nil, src, true
		}
		// Transient datagram errors (an ICMP unreachable surfacing as
		// ECONNREFUSED, a spurious wakeup) must not kill the listener,
		// but a persistent failure must not spin either.
		if errStreak++; errStreak > 100 {
			s.logf("serve: udp read failing persistently, stopping listener: %v", err)
			return nil, src, true
		}
		s.logf("serve: udp read: %v", err)
	}
}

// admitPacket is the protection that runs before the handler:
// rate-limit verdicts and admission refusals are answered (or dropped)
// from the query's own bytes in scratch, written straight from the
// reader — shedding must stay cheaper than serving. It reports whether
// the query holds an admission slot and goes on to the handler.
func (s *Server) admitPacket(conn *net.UDPConn, scratch *dnswire.Buffer, raw []byte, src netip.AddrPort) bool {
	if s.limiter != nil {
		switch s.limiter.verdict(src.Addr()) {
		case rrlDrop:
			s.metrics.rlDropped.Inc()
			return false
		case rrlSlipTC:
			s.metrics.rlSlipped.Inc()
			if tc := appendTruncated(scratch.B[:0], raw); tc != nil {
				scratch.B = tc
				conn.WriteToUDPAddrPort(tc, src)
			}
			return false
		}
	}
	if s.admit() {
		return true
	}
	if sf := appendServFail(scratch.B[:0], raw); sf != nil {
		scratch.B = sf
		conn.WriteToUDPAddrPort(sf, src)
	}
	return false
}

// reply writes the handler's response to one admitted datagram and
// releases its admission slot. A handler refusal and a response the
// socket refused both count as dropped, so serve_responses_total counts
// only replies that were sent and the engine's read = answered +
// refused identity stays exact.
func (s *Server) reply(conn *net.UDPConn, out *dnswire.Buffer, resp []byte, err error, dst netip.AddrPort) {
	defer s.release()
	if err != nil || len(resp) == 0 {
		if err != nil {
			s.logf("serve: packet handler: %v", err)
		}
		s.metrics.dropped.Inc()
		return
	}
	out.B = resp // adopt any growth so the buffer keeps its capacity
	if _, err := conn.WriteToUDPAddrPort(resp, dst); err != nil {
		if !s.draining.Load() {
			s.logf("serve: udp write: %v", err)
		}
		s.metrics.dropped.Inc()
		return
	}
	s.metrics.responses.Inc()
}

// packetInlineLoop answers each datagram on the reader goroutine
// itself: zero goroutine switches per datagram, and one pooled response
// buffer held for the listener's lifetime (scratch affinity — it never
// migrates to another worker).
func (s *Server) packetInlineLoop(conn *net.UDPConn) {
	buf := make([]byte, maxDatagram)
	out := dnswire.GetBuffer()
	defer dnswire.PutBuffer(out)
	var lazy deadline.Lazy
	for {
		raw, src, done := s.readPacket(conn, buf)
		if done {
			return
		}
		if s.admitPacket(conn, out, raw, src) {
			resp, err := s.servePacketChecked(s.queryContext(&lazy), out.B[:0], raw, src)
			s.endQuery(&lazy)
			s.reply(conn, out, resp, err, src)
		}
		if s.draining.Load() {
			return
		}
	}
}

// dispatchItem is one datagram handed from a reader to a worker. The
// packet rides a pooled buffer because the reader's buffer is reused
// by the next read.
type dispatchItem struct {
	buf *dnswire.Buffer
	src netip.AddrPort
}

// packetDispatchLoop feeds a per-listener worker pool. The channel is
// the queue whose depth the serve_listener_<i>_queue_depth gauge
// tracks; when it fills, the reader blocks, pushing backpressure into
// the kernel socket buffer instead of hoarding memory.
func (s *Server) packetDispatchLoop(idx int, conn *net.UDPConn) {
	ch := make(chan dispatchItem, s.opts.Concurrency*2)
	defer close(ch)
	for w := 0; w < s.opts.Concurrency; w++ {
		s.wg.Add(1)
		go s.dispatchWorker(conn, ch)
	}
	buf := make([]byte, maxDatagram)
	// Scratch for protection answers (shed SERVFAIL, RRL slip TC):
	// queries refused here never consume a queue slot or a worker.
	shedOut := dnswire.GetBuffer()
	defer dnswire.PutBuffer(shedOut)
	qd := s.metrics.queueDepth[idx]
	for {
		raw, src, done := s.readPacket(conn, buf)
		if done {
			return
		}
		// The budget slot is held from here until the worker finishes
		// the query, so queued work counts as in flight and memory stays
		// bounded at MaxInflight datagrams.
		if s.admitPacket(conn, shedOut, raw, src) {
			pb := dnswire.GetBuffer()
			pb.B = append(pb.B[:0], raw...)
			ch <- dispatchItem{buf: pb, src: src}
			qd.Set(float64(len(ch)))
		}
		if s.draining.Load() {
			return
		}
	}
}

// dispatchWorker answers queued datagrams. Each worker owns one
// response buffer for its whole lifetime. Closing the queue drains it:
// queued queries are still answered, which is what makes Shutdown
// graceful in dispatch mode.
func (s *Server) dispatchWorker(conn *net.UDPConn, ch chan dispatchItem) {
	defer s.wg.Done()
	out := dnswire.GetBuffer()
	defer dnswire.PutBuffer(out)
	var lazy deadline.Lazy
	for it := range ch {
		resp, err := s.servePacketChecked(s.queryContext(&lazy), out.B[:0], it.buf.B, it.src)
		s.endQuery(&lazy)
		dnswire.PutBuffer(it.buf)
		s.reply(conn, out, resp, err, it.src)
	}
}
