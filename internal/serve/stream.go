package serve

import (
	"errors"
	"io"
	"net"
	"time"

	"repro/internal/deadline"
	"repro/internal/dnswire"
)

// acceptLoop accepts stream connections. Options.Listeners of these
// run in parallel on the shared listener so a connection storm is not
// serialised behind a single accept goroutine.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	errStreak := 0
	for {
		conn, err := s.tcpLn.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			if errStreak++; errStreak > 100 {
				s.logf("serve: accept failing persistently, stopping listener: %v", err)
				return
			}
			s.logf("serve: accept: %v", err)
			continue
		}
		errStreak = 0
		s.metrics.streams.Inc()
		ok, rejected := s.registerConn(conn)
		if !ok {
			conn.Close()
			if rejected {
				// Over the MaxConns cap: refuse this connection but
				// keep accepting — the next one may arrive after a
				// slot frees up.
				continue
			}
			return // draining
		}
		s.wg.Add(1)
		go s.connLoop(conn)
	}
}

// errFrameTooLarge closes a connection whose announced frame exceeds
// Options.MaxFrameBytes before its body is buffered.
var errFrameTooLarge = errors.New("serve: frame exceeds MaxFrameBytes")

// readFrame reads one 2-byte-length-framed message into buf's storage
// (growing it when needed). The idle deadline covers waiting for the
// header; once a frame is announced, MaxFrameBytes rejects oversize
// declarations before a byte of body is read, and StreamReadTimeout
// (when set) paces the body so a dribbling client cannot stretch one
// frame across many idle windows.
func (s *Server) readFrame(conn net.Conn, buf []byte) ([]byte, error) {
	conn.SetReadDeadline(time.Now().Add(streamIdleTimeout))
	// The length prefix is read into buf's own storage (the body then
	// overwrites it): a local array would escape through the Reader
	// interface and cost an allocation per frame.
	if cap(buf) < 2 {
		buf = make([]byte, 2, 512)
	}
	hdr := buf[:2]
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return nil, err
	}
	n := int(hdr[0])<<8 | int(hdr[1])
	if n > s.opts.MaxFrameBytes {
		s.metrics.oversize.Inc()
		s.logf("serve: oversize frame (%d > %d bytes) from %v",
			n, s.opts.MaxFrameBytes, conn.RemoteAddr())
		return nil, errFrameTooLarge
	}
	if rt := s.opts.StreamReadTimeout; rt > 0 {
		conn.SetReadDeadline(time.Now().Add(rt))
	}
	if cap(buf) < n {
		buf = append(buf[:cap(buf)], make([]byte, n-cap(buf))...)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(conn, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// writeResponse frames msg and writes it under the stream write
// deadline. When msg was built in place after buf's 2-byte hole the
// frame goes out in a single write (one TLS record on DoT); otherwise
// the header and the oversized payload go separately.
func (s *Server) writeResponse(conn net.Conn, buf, msg []byte) error {
	if d := s.opts.StreamWriteTimeout; d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	if len(buf) >= 2 && &msg[0] == &buf[2] {
		frame := buf[:2+len(msg)]
		frame[0], frame[1] = byte(len(msg)>>8), byte(len(msg))
		_, err := conn.Write(frame)
		return err
	}
	hdr := [2]byte{byte(len(msg) >> 8), byte(len(msg))}
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(msg)
	return err
}

// shedStream answers one over-budget stream query with SERVFAIL built
// from the query's own bytes. The connection survives — overload is
// transient and the client did nothing wrong — unless the payload is
// not DNS-shaped or the write fails, in which case the caller closes.
func (s *Server) shedStream(conn net.Conn, wr *dnswire.Buffer, raw []byte) bool {
	wr.Grow(2 + len(raw))
	buf := wr.B[:cap(wr.B)]
	sf := appendServFail(buf[2:2], raw)
	if sf == nil {
		return false
	}
	return s.writeResponse(conn, buf, sf) == nil
}

// connLoop serves one framed TCP/TLS connection: read a 2-byte-length
// frame, hand the payload to the StreamHandler, write the framed
// response. The read buffer, the response buffer, and (when the
// response fits the scratch) the frame itself live for the whole
// connection, so a busy client costs one allocation set, not one per
// query. A handler refusal (nil response or error) closes the
// connection, like a DNS server dropping an unparseable stream.
func (s *Server) connLoop(conn net.Conn) {
	defer s.wg.Done()
	defer s.unregisterConn(conn)
	defer conn.Close()
	rd := dnswire.GetBuffer()
	defer dnswire.PutBuffer(rd)
	wr := dnswire.GetBuffer()
	defer dnswire.PutBuffer(wr)
	var lazy deadline.Lazy
	for {
		if s.draining.Load() {
			return
		}
		raw, err := s.readFrame(conn, rd.B[:0])
		if err != nil {
			return
		}
		rd.B = raw
		s.metrics.streamQs.Inc()
		if !s.admit() {
			if !s.shedStream(conn, wr, raw) {
				return
			}
			continue
		}
		// The handler appends its response after a 2-byte hole reserved
		// for the length prefix, so frame and payload go out in one
		// write (one TLS record on DoT) on the common path.
		wr.Grow(512)
		buf := wr.B[:cap(wr.B)]
		msg, err := s.serveMessageChecked(s.queryContext(&lazy), buf[2:2], raw, conn.RemoteAddr())
		s.endQuery(&lazy)
		s.release()
		if err != nil || len(msg) == 0 || len(msg) > 0xffff {
			if err != nil {
				s.logf("serve: stream handler: %v", err)
			}
			s.metrics.dropped.Inc()
			return
		}
		if err := s.writeResponse(conn, buf, msg); err != nil {
			s.metrics.dropped.Inc()
			return
		}
		s.metrics.responses.Inc()
	}
}
