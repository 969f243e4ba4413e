package dohclient

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/dnswire"
)

// The engine's HTTP/1.1 response reader: status line, the four headers
// that decide framing and acceptance, and the three body framings of
// RFC 9112 §6. It parses bytes a remote server chose, so it is strict
// where strictness is cheap — CRLF line ends only, no folded or
// space-padded header names, no Content-Length next to chunked, one
// transfer coding — and bounded everywhere: a line fits the
// connection's read buffer, a head has at most maxHeadLines lines, a
// body stops at the caller's limit. FuzzResponseHead holds it against
// net/http's reader.

const (
	// readBufferSize is each connection's bufio.Reader size, and so the
	// longest status, header, chunk-size or trailer line accepted.
	readBufferSize = 4096
	// maxHeadLines bounds the header lines of one head and the trailer
	// lines after a chunked body.
	maxHeadLines = 128
	// maxInterim bounds the 1xx heads skipped before the final one.
	maxInterim = 5
)

// head is what the engine keeps of a response head.
type head struct {
	status      int
	reason      string // "404 Not Found"; kept only when status is not 200
	contentType string
	length      int64 // Content-Length, -1 when absent
	chunked     bool
	// close is set when the connection cannot carry another exchange
	// whatever the body framing: Connection: close, or HTTP/1.0.
	close bool
}

func malformed(what string) error {
	return fmt.Errorf("malformed HTTP response: %s", what)
}

// readResponse reads one response from br, the body into dst's storage.
// At most limit body bytes are returned; a longer body is cut there.
// reusable reports whether the connection is positioned exactly at the
// start of a next response: the body was self-delimited and read to
// its end, the server did not ask to close, and nothing is left
// buffered.
func readResponse(br *bufio.Reader, dst []byte, limit int) (resp response, reusable bool, err error) {
	var h head
	for interim := 0; ; interim++ {
		if h, err = readHead(br); err != nil {
			return resp, false, err
		}
		if h.status >= 200 {
			break
		}
		if interim == maxInterim {
			return resp, false, malformed("too many interim responses")
		}
	}
	resp.status, resp.reason, resp.contentType = h.status, h.reason, h.contentType

	complete := true
	switch {
	case h.status == 204 || h.status == 304:
		resp.body = dst[:0]
	case h.chunked:
		resp.body, complete, err = readChunked(br, dst[:0], limit)
	case h.length >= 0:
		n := limit
		if h.length <= int64(limit) {
			n = int(h.length)
		} else {
			complete = false
		}
		resp.body = grow(dst[:0], n)[:n]
		if _, err = io.ReadFull(br, resp.body); err != nil {
			err = fmt.Errorf("reading body: %w", noEOF(err))
		}
	default:
		// Delimited by the close of the connection.
		complete = false
		if resp.body, err = dnswire.ReadAllLimit(br, dst[:0], limit); err != nil {
			err = fmt.Errorf("reading body: %w", err)
		}
	}
	if err != nil {
		return resp, false, err
	}
	return resp, complete && !h.close && br.Buffered() == 0, nil
}

// readHead reads one status line and its header block.
func readHead(br *bufio.Reader) (head, error) {
	h := head{length: -1}
	line, err := readLine(br)
	if err != nil {
		return h, err
	}
	// "HTTP/1.x NNN[ reason]"
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || (line[7] != '0' && line[7] != '1') ||
		line[8] != ' ' || (len(line) > 12 && line[12] != ' ') {
		return h, malformed("status line")
	}
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return h, malformed("status code")
		}
		h.status = h.status*10 + int(c-'0')
	}
	if h.status < 100 {
		return h, malformed("status code")
	}
	if h.status != 200 {
		h.reason = string(line[9:])
	}
	http10 := line[7] == '0'

	for n := 0; ; n++ {
		if line, err = readLine(br); err != nil {
			return h, err
		}
		if len(line) == 0 {
			break
		}
		if n == maxHeadLines {
			return h, malformed("too many header lines")
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || bytes.IndexAny(line[:colon], " \t") >= 0 {
			// No name, a folded continuation line, or a name padded
			// with whitespace: each lets two parsers disagree on which
			// header this is.
			return h, malformed("header line")
		}
		name, value := line[:colon], bytes.Trim(line[colon+1:], " \t")
		switch {
		case equalFold(name, "content-length"):
			v, ok := parseUint(value, 10)
			if !ok || (h.length >= 0 && h.length != v) {
				return h, malformed("Content-Length")
			}
			h.length = v
		case equalFold(name, "transfer-encoding"):
			if h.chunked || !equalFold(value, "chunked") {
				return h, malformed("unsupported Transfer-Encoding")
			}
			h.chunked = true
		case equalFold(name, "content-type"):
			if h.contentType == "" { // the first one counts, as with net/http's Header.Get
				h.contentType = mediaType(value)
			}
		case equalFold(name, "connection"):
			for len(value) > 0 {
				var token []byte
				token, value, _ = bytes.Cut(value, []byte{','})
				if equalFold(bytes.Trim(token, " \t"), "close") {
					h.close = true
				}
			}
		}
	}
	if h.chunked && (h.length >= 0 || http10) {
		return h, malformed("chunked with Content-Length or under HTTP/1.0")
	}
	if http10 {
		h.close = true
	}
	return h, nil
}

// readChunked reads a chunked body (RFC 9112 §7.1) through its
// trailer section, appending the data to dst. complete is false when
// the body was cut at limit.
func readChunked(br *bufio.Reader, dst []byte, limit int) (body []byte, complete bool, err error) {
	for {
		line, err := readLine(br)
		if err != nil {
			return dst, false, err
		}
		if ext := bytes.IndexByte(line, ';'); ext >= 0 {
			line = line[:ext]
		}
		size, ok := parseUint(line, 16)
		if !ok {
			return dst, false, malformed("chunk size")
		}
		if size == 0 {
			break
		}
		room := int64(limit - len(dst))
		n := int(min(size, room))
		dst = grow(dst, len(dst)+n)
		if _, err := io.ReadFull(br, dst[len(dst):len(dst)+n]); err != nil {
			return dst, false, fmt.Errorf("reading chunk: %w", noEOF(err))
		}
		dst = dst[:len(dst)+n]
		if size > room {
			return dst, false, nil
		}
		if line, err = readLine(br); err != nil {
			return dst, false, err
		}
		if len(line) != 0 {
			return dst, false, malformed("chunk not followed by CRLF")
		}
	}
	for n := 0; ; n++ {
		line, err := readLine(br)
		if err != nil {
			return dst, false, err
		}
		if len(line) == 0 {
			return dst, true, nil
		}
		if n == maxHeadLines {
			return dst, false, malformed("too many trailer lines")
		}
	}
}

// readLine returns the next line without its CRLF. The slice aliases
// br's buffer and is valid until the next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch {
	case errors.Is(err, bufio.ErrBufferFull):
		return nil, malformed("line too long")
	case err != nil:
		return nil, noEOF(err)
	case len(line) < 2 || line[len(line)-2] != '\r':
		return nil, malformed("line not ended by CRLF")
	}
	return line[:len(line)-2], nil
}

// noEOF turns the end of the stream inside a response into the error
// it is there.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// parseUint parses b as an unsigned number of at most 15 digits in
// the given base (10 or 16): digits only, no sign, no padding.
func parseUint(b []byte, base int64) (int64, bool) {
	if len(b) == 0 || len(b) > 15 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, false
		}
		n = n*base + d
	}
	return n, true
}

// equalFold reports whether b equals lower, an all-lowercase ASCII
// string, ignoring ASCII case.
func equalFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// mediaType returns b as a string, without allocating for the type a
// DoH answer carries.
func mediaType(b []byte) string {
	if string(b) == wireContentType {
		return wireContentType
	}
	return string(b)
}

// grow returns b with capacity for at least n bytes, at least doubling
// when it must reallocate so a body of many small chunks costs linear
// copying.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b
	}
	nb := make([]byte, len(b), max(n, 2*cap(b)))
	copy(nb, b)
	return nb
}
