package dnswire

import (
	"io"
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
// commonest response decodes into one object instead of three. The
// upstream answer a resolver caches is such a pool miss on every query
// (the cache keeps it), which is where the saving shows.
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

// PutMessage returns m to the pool. m (and any Name/RData it holds
// that the caller did not copy out) must not be used afterwards.
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
