package dnswire

import (
	"io"
	"strings"
	"sync"
)

// Pooled scratch for the wire hot path. Transports and servers that
// pack/unpack a message per query borrow storage here instead of
// allocating per call.
//
// Ownership rules (see docs/performance.md):
//   - GetBuffer/GetMessage transfer ownership to the caller; PutBuffer/
//     PutMessage transfer it back. Never Put something you handed to
//     someone else (e.g. a *Message stored in a cache, or a slice
//     retained past the call).
//   - Put is optional: dropping a value on the floor is always safe,
//     it just costs a future allocation.
//   - Values come back dirty. Buffer.B has length 0 but old capacity;
//     a Message keeps its previous section capacity (that reuse is the
//     point) — UnpackInto overwrites everything it decodes.

// Buffer is a pooled byte slice for packing messages and reading
// transport payloads. Use B[:0] as an append target or B[:cap(B)] as
// a read target.
type Buffer struct {
	B []byte
}

// maxRetainedBuffer caps what goes back in the pool so one oversized
// response cannot pin memory forever. 128 KiB covers the 64 KiB UDP
// read buffers with headroom.
const maxRetainedBuffer = 128 << 10

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 4096)} }}

// GetBuffer returns a pooled buffer with len(B) == 0.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// PutBuffer returns b to the pool. b must not be used afterwards.
func PutBuffer(b *Buffer) {
	if b == nil || cap(b.B) > maxRetainedBuffer {
		return
	}
	bufPool.Put(b)
}

// Grow ensures cap(B) >= n, preserving B's contents.
func (b *Buffer) Grow(n int) {
	if cap(b.B) >= n {
		return
	}
	nb := make([]byte, len(b.B), n)
	copy(nb, b.B)
	b.B = nb
}

// ReadAllLimit reads r to EOF (or limit bytes, whichever comes first)
// into b's storage, mimicking io.ReadAll(io.LimitReader(r, limit))
// without the per-call growth allocations: a pooled buffer that has
// seen one payload absorbs every later one of similar size for free.
func ReadAllLimit(r io.Reader, b []byte, limit int) ([]byte, error) {
	for {
		if len(b) >= limit {
			return b[:limit], nil
		}
		if len(b) == cap(b) {
			grow := cap(b) * 2
			if grow < 512 {
				grow = 512
			}
			if grow > limit {
				grow = limit
			}
			nb := make([]byte, len(b), grow)
			copy(nb, b)
			b = nb
		}
		space := cap(b)
		if space > limit {
			space = limit
		}
		n, err := r.Read(b[len(b):space])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// answerBlock is what the pool makes when it is empty: a Message with
// room for one question and one answer allocated alongside it, so the
// commonest response decodes into one object instead of three.
type answerBlock struct {
	Message
	q  [1]Question
	rr [1]ResourceRecord
}

func newAnswerBlock() *Message {
	b := new(answerBlock)
	b.Questions, b.Answers = b.q[:0], b.rr[:0]
	return &b.Message
}

var msgPool = sync.Pool{New: func() any { return newAnswerBlock() }}

// GetMessage returns a pooled message. Its sections retain the
// capacity (and contents) of their previous use; UnpackInto resets
// them, and NewQuery-style construction should truncate with [:0]
// before appending.
func GetMessage() *Message {
	return msgPool.Get().(*Message)
}

// PutMessage returns m to the pool; only m's owner may, and m must not
// be used afterwards. Ownership is of the header and the section slices
// (resolver.Resolver states the rule): the next UnpackInto rewrites
// those in place. The names and RData values m holds are immutable and
// may live on in copies — a cache's entry, say — since decoding only
// ever replaces them.
func PutMessage(m *Message) {
	if m == nil {
		return
	}
	// A message that ballooned (huge sections from a hostile response)
	// is cheaper to re-allocate than to pin.
	if cap(m.Questions) > 64 || cap(m.Answers) > 512 ||
		cap(m.Authorities) > 512 || cap(m.Additionals) > 512 {
		return
	}
	msgPool.Put(m)
}

// ChunkSize is the size of a StringChunks chunk.
const ChunkSize = 4 << 10

// StringChunks cuts strings out of append-only chunks of ChunkSize
// bytes, so that strings that die together cost one allocation per
// chunk instead of one each. A chunk is written only past the strings
// already cut from it, and a full one is dropped, never reused: a
// string once handed out is never written again, and the garbage
// collector frees a chunk when the last string cut from it dies.
//
// The rule for using it (docs/performance.md): a string is cut from a
// chunk whose strings all live as long as it does. A kept string cut
// from a chunk of short-lived ones pins them all, so a component keeps
// one StringChunks per lifetime — a run's query names, a dataset's
// client IDs, a query log's names. Not safe for concurrent use, and not
// to be copied once used.
type StringChunks struct{ b strings.Builder }

// Cut returns b's bytes as a string. A cut longer than a chunk is an
// allocation of its own, leaving the current chunk in place; an empty
// one allocates nothing.
func (c *StringChunks) Cut(b []byte) string {
	switch {
	case len(b) > ChunkSize:
		return string(b)
	case c.b.Cap()-c.b.Len() < len(b):
		c.b = strings.Builder{}
		c.b.Grow(ChunkSize)
	}
	start := c.b.Len()
	c.b.Write(b)
	return c.b.String()[start:]
}
