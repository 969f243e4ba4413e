package serve

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// FuzzEchoAnswers drives the two answers the engine builds from a raw,
// untrusted query without parsing it: the SERVFAIL of load shedding and
// panic recovery, and the TC=1 of an RRL slip. Whatever the bytes, each
// is either refused (too short for a header) or the query echoed after
// dst with exactly the header bits the protection paths promise. The
// seed corpus (testdata/fuzz/FuzzEchoAnswers) holds the shapes a
// hostile client sends: short header, a response (QR=1), QDCOUNT > 1.
func FuzzEchoAnswers(f *testing.F) {
	q, err := dnswire.NewQuery(0x1234, "shed.a.com.", dnswire.TypeA).Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(q)
	f.Fuzz(func(t *testing.T, raw []byte) {
		orig := append([]byte(nil), raw...)
		prefix := []byte{0xAA, 0xBB, 0xCC}
		for _, tc := range []struct {
			name  string
			build func(dst, raw []byte) []byte
			tc    bool
			rcode byte
		}{
			{"servfail", appendServFail, false, rcodeServ},
			{"truncated", appendTruncated, true, 0},
		} {
			out := tc.build(append([]byte(nil), prefix...), raw)
			if !bytes.Equal(raw, orig) {
				t.Fatalf("%s: the query bytes were modified", tc.name)
			}
			if len(raw) < headerLen {
				if out != nil {
					t.Fatalf("%s: %d-byte input answered with %x", tc.name, len(raw), out)
				}
				continue
			}
			if len(out) != len(prefix)+len(raw) || !bytes.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("%s: %d bytes out for %d in, prefix %x", tc.name, len(out), len(raw), out[:len(prefix)])
			}
			h := out[len(prefix):]
			switch {
			case h[0] != raw[0] || h[1] != raw[1]:
				t.Errorf("%s: ID %x%x, query had %x%x", tc.name, h[0], h[1], raw[0], raw[1])
			case h[2]&flagQR == 0:
				t.Errorf("%s: QR clear", tc.name)
			case h[2]&(maskOp|flagRD) != raw[2]&(maskOp|flagRD):
				t.Errorf("%s: opcode/RD %02x, query had %02x", tc.name, h[2], raw[2])
			case h[2]&0x04 != 0:
				t.Errorf("%s: AA set on an answer the server never looked up", tc.name)
			case (h[2]&flagTC != 0) != tc.tc:
				t.Errorf("%s: TC = %v", tc.name, h[2]&flagTC != 0)
			case h[3] != tc.rcode:
				t.Errorf("%s: RA/Z/RCODE byte %02x, want %02x", tc.name, h[3], tc.rcode)
			case !bytes.Equal(h[4:], raw[4:]):
				t.Errorf("%s: counts or sections differ from the query's", tc.name)
			}
			// A query the codec accepts must get an answer it accepts,
			// for the same question.
			var qm, am dnswire.Message
			if dnswire.UnpackInto(raw, &qm) == nil {
				if err := dnswire.UnpackInto(h, &am); err != nil {
					t.Fatalf("%s: answer to a well-formed query does not decode: %v", tc.name, err)
				}
				if !am.Header.Response || am.Header.ID != qm.Header.ID || len(am.Questions) != len(qm.Questions) {
					t.Errorf("%s: answer header %+v for query %+v", tc.name, am.Header, qm.Header)
				}
			}
		}
	})
}

// scriptConn is a net.Conn that reads from a fixed byte stream.
type scriptConn struct {
	net.Conn // nil: anything readFrame does not use panics, loudly
	r        *bytes.Reader
}

func (c *scriptConn) Read(p []byte) (int, error)      { return c.r.Read(p) }
func (c *scriptConn) SetReadDeadline(time.Time) error { return nil }
func (c *scriptConn) RemoteAddr() net.Addr            { return &net.TCPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 53} }

// FuzzReadFrame feeds the stream frame reader an arbitrary byte stream
// and checks it against the two-line definition of the framing: every
// frame it returns is the next length-prefixed chunk of the stream, a
// frame announcing more than MaxFrameBytes ends the connection before
// its body is read (and is counted), and a stream that ends inside a
// frame is an error, never a short frame. The reader is run the way
// connLoop runs it, handing each frame's storage back for the next. The
// seed corpus (testdata/fuzz/FuzzReadFrame) has the zero-length frame,
// the oversize announcement, and streams cut inside header and body.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{0, 3, 'a', 'b', 'c', 0, 1, 'd'}, uint16(512))
	f.Fuzz(func(t *testing.T, stream []byte, maxFrame uint16) {
		reg := obs.NewRegistry()
		limit := int(maxFrame)
		if limit == 0 {
			limit = 0xffff // what New makes of an unset MaxFrameBytes
		}
		s := &Server{opts: Options{StreamIdleTimeout: time.Second, Protection: Protection{MaxFrameBytes: limit}}}
		s.metrics.oversize = reg.Counter("serve_frame_oversize_total")
		conn := &scriptConn{r: bytes.NewReader(stream)}

		rest := stream
		var buf []byte
		for {
			frame, err := s.readFrame(conn, buf[:0])
			if len(rest) < 2 {
				want := io.EOF
				if len(rest) == 1 {
					want = io.ErrUnexpectedEOF // cut inside the length prefix
				}
				if err != want {
					t.Fatalf("%d trailing byte(s): frame %x, err %v, want %v", len(rest), frame, err, want)
				}
				return
			}
			n := int(rest[0])<<8 | int(rest[1])
			switch {
			case n > limit:
				if !errors.Is(err, errFrameTooLarge) {
					t.Fatalf("%d-byte frame under a %d-byte limit: err = %v", n, limit, err)
				}
				if got := reg.Counter("serve_frame_oversize_total").Value(); got != 1 {
					t.Fatalf("oversize counter = %d, want 1", got)
				}
				if unread := conn.r.Len(); unread != len(rest)-2 {
					t.Fatalf("oversize frame: %d body byte(s) consumed before the refusal", len(rest)-2-unread)
				}
				return
			case len(rest)-2 < n:
				if err == nil {
					t.Fatalf("short frame %x returned for a %d-byte announcement with %d byte(s) left", frame, n, len(rest)-2)
				}
				return
			case err != nil:
				t.Fatalf("complete %d-byte frame: %v", n, err)
			case !bytes.Equal(frame, rest[2:2+n]):
				t.Fatalf("frame = %x, stream has %x", frame, rest[2:2+n])
			}
			rest, buf = rest[2+n:], frame
		}
	})
}
