package serve

import (
	"errors"
	"net"
	"net/netip"

	"repro/internal/deadline"
	"repro/internal/dnswire"
	"repro/internal/serve/batchio"
)

// packetLoop is one UDP listener shard: it moves datagrams in batches
// and answers them either inline (CPU-bound handlers) or through a
// dispatch pool (blocking handlers).
func (s *Server) packetLoop(idx int, conn *net.UDPConn) {
	defer s.wg.Done()
	b := batchio.New(conn, s.opts.BatchSize)
	if s.opts.Concurrency > 0 {
		s.packetDispatchLoop(idx, conn, b)
		return
	}
	s.packetInlineLoop(idx, conn, b)
}

// readBatch classifies one batched read: n > 0 to process, done to
// exit the loop.
func (s *Server) readBatch(b batchio.Batch, errStreak *int) (n int, done bool) {
	n, err := b.Read()
	if err != nil {
		if s.draining.Load() || errors.Is(err, net.ErrClosed) {
			return 0, true
		}
		// Transient datagram errors (an ICMP unreachable surfacing as
		// ECONNREFUSED, a spurious wakeup) must not kill the listener,
		// but a persistent failure must not spin either.
		if *errStreak++; *errStreak > 100 {
			s.logf("serve: udp read failing persistently, stopping listener: %v", err)
			return 0, true
		}
		s.logf("serve: udp read: %v", err)
		return 0, false
	}
	*errStreak = 0
	return n, false
}

// packetInlineLoop answers each batch on the reader goroutine itself:
// zero goroutine switches per datagram, one pooled response buffer per
// batch slot held for the listener's lifetime (scratch affinity — the
// buffers never migrate to another worker), and one batched write for
// the whole batch.
func (s *Server) packetInlineLoop(idx int, conn *net.UDPConn, b batchio.Batch) {
	outs := make([]*dnswire.Buffer, s.opts.BatchSize)
	resps := make([][]byte, s.opts.BatchSize)
	for i := range outs {
		outs[i] = dnswire.GetBuffer()
	}
	defer func() {
		for _, o := range outs {
			dnswire.PutBuffer(o)
		}
	}()
	qd := s.metrics.queueDepth[idx]
	var lazy deadline.Lazy
	errStreak := 0
	for {
		n, done := s.readBatch(b, &errStreak)
		if done {
			return
		}
		if n == 0 {
			continue
		}
		s.observeBatch(n)
		qd.Set(float64(n))
		answered, wrote := 0, 0
		for i := 0; i < n; i++ {
			resps[i] = nil
			raw := b.Packet(i)
			// Protection runs before the handler: rate-limit verdicts
			// and admission refusals are answered (or dropped) from the
			// query's own bytes, riding the same batched write as real
			// responses — shedding must stay cheaper than serving.
			if s.limiter != nil {
				switch s.limiter.verdict(b.Addr(i).Addr()) {
				case rrlDrop:
					s.metrics.rlDropped.Inc()
					continue
				case rrlSlipTC:
					s.metrics.rlSlipped.Inc()
					if tc := appendTruncated(outs[i].B[:0], raw); tc != nil {
						outs[i].B = tc
						resps[i] = tc
						wrote++
					}
					continue
				}
			}
			if !s.admit() {
				if sf := appendServFail(outs[i].B[:0], raw); sf != nil {
					outs[i].B = sf
					resps[i] = sf
					wrote++
				}
				continue
			}
			resp, err := s.servePacketChecked(s.queryContext(&lazy), outs[i].B[:0], raw, b.Addr(i))
			s.endQuery(&lazy)
			s.release()
			if err != nil || len(resp) == 0 {
				if err != nil {
					s.logf("serve: packet handler: %v", err)
				}
				s.metrics.dropped.Inc()
				continue
			}
			outs[i].B = resp // adopt any growth so the slot keeps its capacity
			resps[i] = resp
			answered++
			wrote++
		}
		if wrote > 0 {
			if err := b.Write(resps[:n]); err != nil && !s.draining.Load() {
				s.logf("serve: udp write: %v", err)
			}
		}
		if answered > 0 {
			s.metrics.responses.Add(int64(answered))
		}
		if s.draining.Load() {
			return
		}
	}
}

// dispatchItem is one datagram handed from a reader to a worker. The
// packet rides a pooled buffer because the reader's batch slots are
// reused by the next Read.
type dispatchItem struct {
	buf *dnswire.Buffer
	src netip.AddrPort
}

// packetDispatchLoop feeds a per-listener worker pool. The channel is
// the queue whose depth the serve_listener_<i>_queue_depth gauge
// tracks; when it fills, the reader blocks, pushing backpressure into
// the kernel socket buffer instead of hoarding memory.
func (s *Server) packetDispatchLoop(idx int, conn *net.UDPConn, b batchio.Batch) {
	ch := make(chan dispatchItem, s.opts.Concurrency*2)
	defer close(ch)
	for w := 0; w < s.opts.Concurrency; w++ {
		s.wg.Add(1)
		go s.dispatchWorker(conn, ch)
	}
	// Scratch for protection answers (shed SERVFAIL, RRL slip TC)
	// written directly from the reader: queries refused here never
	// consume a queue slot or a worker.
	shedOut := dnswire.GetBuffer()
	defer dnswire.PutBuffer(shedOut)
	qd := s.metrics.queueDepth[idx]
	errStreak := 0
	for {
		n, done := s.readBatch(b, &errStreak)
		if done {
			return
		}
		if n == 0 {
			continue
		}
		s.observeBatch(n)
		for i := 0; i < n; i++ {
			pkt := b.Packet(i)
			if s.limiter != nil {
				switch s.limiter.verdict(b.Addr(i).Addr()) {
				case rrlDrop:
					s.metrics.rlDropped.Inc()
					continue
				case rrlSlipTC:
					s.metrics.rlSlipped.Inc()
					if tc := appendTruncated(shedOut.B[:0], pkt); tc != nil {
						shedOut.B = tc
						conn.WriteToUDPAddrPort(tc, b.Addr(i))
					}
					continue
				}
			}
			// The budget slot is held from here until the worker
			// finishes the query, so queued work counts as in flight
			// and memory stays bounded at MaxInflight datagrams.
			if !s.admit() {
				if sf := appendServFail(shedOut.B[:0], pkt); sf != nil {
					shedOut.B = sf
					conn.WriteToUDPAddrPort(sf, b.Addr(i))
				}
				continue
			}
			pb := dnswire.GetBuffer()
			pb.Grow(len(pkt))
			pb.B = pb.B[:len(pkt)]
			copy(pb.B, pkt)
			ch <- dispatchItem{buf: pb, src: b.Addr(i)}
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
		if err != nil || len(resp) == 0 {
			if err != nil {
				s.logf("serve: packet handler: %v", err)
			}
			s.metrics.dropped.Inc()
			s.release()
			continue
		}
		out.B = resp
		if _, werr := conn.WriteToUDPAddrPort(resp, it.src); werr != nil {
			if !s.draining.Load() {
				s.logf("serve: udp write: %v", werr)
			}
			// The datagram was read and handled but its response was
			// lost at the socket; count it as dropped so the engine's
			// read = answered + refused identity stays exact.
			s.metrics.dropped.Inc()
			s.release()
			continue
		}
		s.metrics.responses.Inc()
		s.release()
	}
}

func (s *Server) observeBatch(n int) {
	s.metrics.packets.Add(int64(n))
	s.metrics.batches.Inc()
	s.metrics.batchSize.Set(float64(n))
}
