package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

var errTruncated = errors.New("dnswire: message truncated")

// MaxUDPPayload is the classic 512-byte UDP message limit; responses
// that would exceed the client's advertised limit set TC and truncate.
const MaxUDPPayload = 512

// ResourceRecord is a decoded resource record from any of the answer,
// authority, or additional sections.
type ResourceRecord struct {
	Name  Name
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

func (rr ResourceRecord) String() string {
	return fmt.Sprintf("%s %d %s %s %s", rr.Name, rr.TTL, rr.Class, rr.Type, rr.Data)
}

// Message is a complete DNS message.
type Message struct {
	Header      Header
	Questions   []Question
	Answers     []ResourceRecord
	Authorities []ResourceRecord
	Additionals []ResourceRecord
}

// queryBlock is a Message and the storage of its one question in a
// single allocation: the shape of every query and of every response
// skeleton built from one.
type queryBlock struct {
	Message
	q [1]Question
}

// NewQuery builds a recursive query for (name, type) with the given ID.
func NewQuery(id uint16, name Name, typ Type) *Message {
	b := new(queryBlock)
	b.Header = Header{ID: id, Opcode: OpcodeQuery, RecursionDesired: true}
	b.q[0] = Question{Name: NewName(string(name)), Type: typ, Class: ClassIN}
	b.Questions = b.q[:]
	return &b.Message
}

// Reply builds a response skeleton mirroring the query's ID, question,
// and RD flag.
func (m *Message) Reply() *Message {
	b := new(queryBlock)
	b.Questions = b.q[:0]
	return m.ReplyInto(&b.Message)
}

// ReplyInto is Reply built in r, keeping r's section storage: the form
// for a server that takes r from GetMessage and returns it with
// PutMessage once the response is packed.
func (m *Message) ReplyInto(r *Message) *Message {
	r.Header = Header{
		ID:               m.Header.ID,
		Response:         true,
		Opcode:           m.Header.Opcode,
		RecursionDesired: m.Header.RecursionDesired,
	}
	r.Questions = append(r.Questions[:0], m.Questions...)
	r.Answers, r.Authorities, r.Additionals = r.Answers[:0], r.Authorities[:0], r.Additionals[:0]
	return r
}

// Pack encodes the message into wire format with name compression.
// It is a thin wrapper over AppendPack; single-question queries skip
// the compression table entirely.
func (m *Message) Pack() ([]byte, error) {
	b, err := m.AppendPack(make([]byte, 0, 128))
	if err != nil {
		return nil, err
	}
	return b, nil
}

func packRR(b []byte, rr ResourceRecord, t *compressTable) ([]byte, error) {
	if rr.Data == nil {
		return nil, errors.New("dnswire: resource record with nil data")
	}
	b, err := packName(b, rr.Name, t)
	if err != nil {
		return nil, err
	}
	typ := rr.Type
	if typ == 0 {
		typ = rr.Data.Type()
	}
	b = binary.BigEndian.AppendUint16(b, uint16(typ))
	class := rr.Class
	ttl := rr.TTL
	if opt, ok := rr.Data.(OPTRecord); ok {
		// For OPT the class field carries the UDP payload size.
		class = Class(opt.UDPSize)
		if class == 0 {
			class = Class(MaxUDPPayload)
		}
	}
	b = binary.BigEndian.AppendUint16(b, uint16(class))
	b = binary.BigEndian.AppendUint32(b, ttl)
	lenAt := len(b)
	b = binary.BigEndian.AppendUint16(b, 0) // placeholder RDLENGTH
	b, err = rr.Data.pack(b, t)
	if err != nil {
		return nil, err
	}
	rdlen := len(b) - lenAt - 2
	if rdlen > 0xffff {
		return nil, errors.New("dnswire: RDATA too large")
	}
	binary.BigEndian.PutUint16(b[lenAt:], uint16(rdlen))
	return b, nil
}

// Unpack decodes a complete wire-format message. It is a thin wrapper
// over UnpackInto with a fresh Message.
func Unpack(msg []byte) (*Message, error) {
	m := new(Message)
	if err := UnpackInto(msg, m); err != nil {
		return nil, err
	}
	return m, nil
}

// AppendPackLimit is AppendPack for a datagram of at most size bytes:
// the message is packed once, and only one that does not fit is
// truncated (whole records dropped from the tail, TC set) and packed
// again. Both UDP fronts answer through it.
func (m *Message) AppendPackLimit(dst []byte, size int) ([]byte, error) {
	wire, err := m.AppendPack(dst)
	if err != nil || len(wire)-len(dst) <= size {
		return wire, err
	}
	limited, err := m.Truncate(size)
	if err != nil {
		return dst, err
	}
	return limited.AppendPack(dst)
}

// Truncate returns a copy of m that fits within size bytes when
// packed, dropping whole records from the tail and setting TC when
// anything was dropped. It is used by UDP responders.
func (m *Message) Truncate(size int) (*Message, error) {
	scratch := GetBuffer()
	defer PutBuffer(scratch)
	b, err := m.AppendPack(scratch.B[:0])
	if err != nil {
		return nil, err
	}
	scratch.B = b
	if len(b) <= size {
		return m, nil
	}
	out := *m
	out.Answers = append([]ResourceRecord(nil), m.Answers...)
	out.Authorities = append([]ResourceRecord(nil), m.Authorities...)
	out.Additionals = append([]ResourceRecord(nil), m.Additionals...)
	for len(out.Additionals)+len(out.Authorities)+len(out.Answers) > 0 {
		switch {
		case len(out.Additionals) > 0:
			out.Additionals = out.Additionals[:len(out.Additionals)-1]
		case len(out.Authorities) > 0:
			out.Authorities = out.Authorities[:len(out.Authorities)-1]
		default:
			out.Answers = out.Answers[:len(out.Answers)-1]
		}
		out.Header.Truncated = true
		if b, err = out.AppendPack(scratch.B[:0]); err != nil {
			return nil, err
		}
		scratch.B = b
		if len(b) <= size {
			return &out, nil
		}
	}
	out.Header.Truncated = true
	return &out, nil
}

// String renders a dig-like summary, useful in logs and examples.
func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; opcode: %s, status: %s, id: %d\n",
		m.Header.Opcode, m.Header.RCode, m.Header.ID)
	fmt.Fprintf(&sb, ";; flags:")
	for _, f := range []struct {
		on   bool
		name string
	}{
		{m.Header.Response, "qr"}, {m.Header.Authoritative, "aa"},
		{m.Header.Truncated, "tc"}, {m.Header.RecursionDesired, "rd"},
		{m.Header.RecursionAvailable, "ra"},
	} {
		if f.on {
			sb.WriteString(" " + f.name)
		}
	}
	fmt.Fprintf(&sb, "; QUERY: %d, ANSWER: %d, AUTHORITY: %d, ADDITIONAL: %d\n",
		len(m.Questions), len(m.Answers), len(m.Authorities), len(m.Additionals))
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";%s\n", q)
	}
	for _, rr := range m.Answers {
		fmt.Fprintf(&sb, "%s\n", rr)
	}
	for _, rr := range m.Authorities {
		fmt.Fprintf(&sb, "%s\n", rr)
	}
	for _, rr := range m.Additionals {
		fmt.Fprintf(&sb, "%s\n", rr)
	}
	return sb.String()
}
