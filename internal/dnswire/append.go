package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
)

// This file holds the allocation-free wire fast path: AppendPack and
// UnpackInto reuse caller storage, and the per-message compression
// state lives in a pooled fixed-size offset table instead of a
// map[string]int. The legacy Pack/Unpack entry points in message.go
// are thin wrappers over these, so the two paths cannot drift.

// compressInline is the number of suffix offsets a table holds before
// spilling to the heap. Every distinct name suffix a message packs
// consumes one slot; queries carry a handful of suffixes at most, and
// even multi-record responses rarely exceed a few dozen. The spill
// slice keeps pathological messages byte-identical to the unbounded
// map the codec used to allocate per Pack.
const compressInline = 32

// compressTable records, for each name suffix already packed, the
// message-relative offset where its encoding starts. Lookups compare
// the candidate suffix against the wire bytes already written (ASCII
// case-folded, following pointers), so the table never stores strings
// and a steady-state Pack allocates nothing.
type compressTable struct {
	// base is the dst index of the message's first byte; DNS
	// compression pointers are message-relative, so AppendPack into a
	// buffer that already holds a TCP length prefix (or anything else)
	// must not use absolute buffer offsets.
	base   int
	n      int
	inline [compressInline]uint16
	spill  []uint16
}

func (t *compressTable) reset(base int) {
	t.base = base
	t.n = 0
	t.spill = t.spill[:0]
}

func (t *compressTable) add(off int) {
	if t.n < compressInline {
		t.inline[t.n] = uint16(off)
		t.n++
		return
	}
	t.spill = append(t.spill, uint16(off))
	t.n++
}

// find returns the recorded offset whose wire-format name equals the
// presentation-form suffix (which always carries its trailing dot).
// Entries are unique by content — a suffix is only recorded after a
// failed lookup — so at most one entry can match, exactly like the
// map the table replaced.
func (t *compressTable) find(msg []byte, suffix string) (int, bool) {
	for i := 0; i < t.n; i++ {
		var off int
		if i < compressInline {
			off = int(t.inline[i])
		} else {
			off = int(t.spill[i-compressInline])
		}
		if wireNameEqualFold(msg, off, suffix) {
			return off, true
		}
	}
	return 0, false
}

// tablePool recycles compression tables. The table must be heap-backed
// anyway (it crosses the RData.pack interface boundary, so escape
// analysis cannot keep it on the stack); pooling makes that a one-time
// cost instead of a per-Pack allocation.
var tablePool = sync.Pool{New: func() any { return new(compressTable) }}

// wireNameEqualFold reports whether the (already well-formed) wire
// name starting at msg[off] equals the presentation-form name s,
// comparing labels ASCII case-insensitively per RFC 1035 §2.3.3.
// Compression pointers in the stored name are followed.
func wireNameEqualFold(msg []byte, off int, s string) bool {
	si := 0
	hops := 0
	for {
		if off >= len(msg) {
			return false
		}
		c := int(msg[off])
		switch {
		case c == 0:
			return si == len(s)
		case c&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return false
			}
			hops++
			if hops > 64 {
				return false
			}
			off = (c&0x3f)<<8 | int(msg[off+1])
		case c&0xc0 != 0:
			return false
		default:
			if off+1+c > len(msg) || si+c >= len(s) || s[si+c] != '.' {
				return false
			}
			if !asciiEqualFold(msg[off+1:off+1+c], s[si:si+c]) {
				return false
			}
			si += c + 1
			off += 1 + c
		}
	}
}

// asciiEqualFold compares a wire label to a presentation label with
// ASCII case folding only (DNS names fold [A-Z] and nothing else).
func asciiEqualFold(b []byte, s string) bool {
	for i := 0; i < len(s); i++ {
		x, y := b[i], s[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// AppendPack encodes the message into wire format with name
// compression, appending to dst and returning the extended slice. It
// is the allocation-free fast path behind Pack: with a dst of
// sufficient capacity and normalized names it performs zero
// allocations. Compression offsets are relative to len(dst) at entry,
// so a dst already carrying a transport prefix stays correct. On
// error dst is returned truncated to its original length, so pooled
// buffers survive failed packs.
func (m *Message) AppendPack(dst []byte) ([]byte, error) {
	if len(m.Questions) > 0xffff || len(m.Answers) > 0xffff ||
		len(m.Authorities) > 0xffff || len(m.Additionals) > 0xffff {
		return dst, errors.New("dnswire: section too large")
	}
	orig := len(dst)
	b := binary.BigEndian.AppendUint16(dst, m.Header.ID)
	b = binary.BigEndian.AppendUint16(b, m.Header.flags())
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Questions)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Answers)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Authorities)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Additionals)))

	// Single-question queries — the campaign's dominant message shape —
	// cannot profit from compression (a first name never matches an
	// empty table), so they skip the table entirely.
	var t *compressTable
	if len(m.Questions) > 1 ||
		len(m.Answers)+len(m.Authorities)+len(m.Additionals) > 0 {
		t = tablePool.Get().(*compressTable)
		t.reset(orig)
		defer tablePool.Put(t)
	}

	var err error
	for _, q := range m.Questions {
		if b, err = packName(b, q.Name, t); err != nil {
			return dst[:orig], err
		}
		b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
		b = binary.BigEndian.AppendUint16(b, uint16(q.Class))
	}
	for _, sec := range [3][]ResourceRecord{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			if b, err = packRR(b, rr, t); err != nil {
				return dst[:orig], err
			}
		}
	}
	return b, nil
}

// UnpackInto decodes a complete wire-format message into m, reusing
// m's section slices (and, where the decoded content matches what m
// already holds, its name strings and RData values). Decoding the
// same message shape into a recycled *Message repeatedly — the
// steady state of every transport hot loop — allocates nothing. A
// record's owner name that equals the name decoded just before it (the
// question's, for the first record) shares that string. On error m is
// left partially overwritten and must not be used.
func UnpackInto(msg []byte, m *Message) error { return unpackInto(msg, m, nil) }

// UnpackReplyInto is UnpackInto for the response to q: a question the
// server echoed back reuses q's name string, so a client decoding its
// answer makes no string for a name it already holds.
func UnpackReplyInto(msg []byte, m, q *Message) error { return unpackInto(msg, m, q) }

// NameBufSize is the scratch PeekQuestion needs: room for any name the
// decoder accepts.
const NameBufSize = nameBufSize

// PeekQuestion decodes msg's first question name, in presentation form,
// into buf and returns it with the question's type, allocating nothing;
// ok is false when msg does not decode that far. A server looks the
// name up with it before decoding the query, so that UnpackReplyInto can
// take a spelling the server already holds instead of a fresh string.
func PeekQuestion(msg []byte, buf *[NameBufSize]byte) (name []byte, typ Type, ok bool) {
	if len(msg) < 12 || binary.BigEndian.Uint16(msg[4:]) == 0 {
		return nil, 0, false
	}
	n, off, err := unpackNameBuf(msg, 12, buf[:])
	if err != nil || off+2 > len(msg) {
		return nil, 0, false
	}
	return buf[:n], Type(binary.BigEndian.Uint16(msg[off:])), true
}

func unpackInto(msg []byte, m, q *Message) error {
	if len(msg) < 12 {
		return errTruncated
	}
	m.Header = headerFromFlags(binary.BigEndian.Uint16(msg[2:]))
	m.Header.ID = binary.BigEndian.Uint16(msg[0:])
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	ns := int(binary.BigEndian.Uint16(msg[8:]))
	ar := int(binary.BigEndian.Uint16(msg[10:]))

	off := 12
	oldQ := m.Questions
	m.Questions = m.Questions[:0]
	var last Name // the name decoded most recently
	for i := 0; i < qd; i++ {
		var qn Question
		var old Name
		if i < len(oldQ) {
			old = oldQ[i].Name
		}
		if q != nil && i < len(q.Questions) {
			last = q.Questions[i].Name
		}
		var err error
		qn.Name, off, err = unpackNameReuse(msg, off, old, last)
		if err != nil {
			return err
		}
		if off+4 > len(msg) {
			return errTruncated
		}
		qn.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		qn.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		m.Questions = append(m.Questions, qn)
		last = qn.Name
	}
	var err error
	if m.Answers, off, last, err = unpackSectionInto(msg, off, an, m.Answers, last); err != nil {
		return err
	}
	if m.Authorities, off, last, err = unpackSectionInto(msg, off, ns, m.Authorities, last); err != nil {
		return err
	}
	if m.Additionals, _, _, err = unpackSectionInto(msg, off, ar, m.Additionals, last); err != nil {
		return err
	}
	return nil
}

// unpackSectionInto decodes n records into dst[:0], offering dst's
// previous occupants as reuse candidates position by position and last,
// the name decoded just before, as the owner-name candidate.
func unpackSectionInto(msg []byte, off, n int, dst []ResourceRecord, last Name) ([]ResourceRecord, int, Name, error) {
	old := dst
	dst = dst[:0]
	for i := 0; i < n; i++ {
		var prev ResourceRecord
		if i < len(old) {
			prev = old[i]
		}
		rr, next, err := unpackRRReuse(msg, off, prev, last)
		if err != nil {
			return dst, 0, last, err
		}
		dst = append(dst, rr)
		off, last = next, rr.Name
	}
	return dst, off, last, nil
}

// unpackRRReuse is unpackRR with reuse candidates: when the decoded
// name equals prev's or last, or the RData equals prev's, the existing
// allocation is returned instead of a fresh one.
func unpackRRReuse(msg []byte, off int, prev ResourceRecord, last Name) (ResourceRecord, int, error) {
	var rr ResourceRecord
	var err error
	rr.Name, off, err = unpackNameReuse(msg, off, prev.Name, last)
	if err != nil {
		return rr, 0, err
	}
	if off+10 > len(msg) {
		return rr, 0, errTruncated
	}
	rr.Type = Type(binary.BigEndian.Uint16(msg[off:]))
	rr.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
	rr.TTL = binary.BigEndian.Uint32(msg[off+4:])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	rr.Data, err = unpackRDataReuse(msg, off, rdlen, rr.Type, prev.Data)
	if err != nil {
		return rr, 0, err
	}
	if opt, ok := rr.Data.(OPTRecord); ok && opt.UDPSize != uint16(rr.Class) {
		// Re-box only when the advertised size actually changed; a
		// reused OPT already carries it.
		opt.UDPSize = uint16(rr.Class)
		rr.Data = opt
	}
	return rr, off + rdlen, nil
}

// unpackRDataReuse decodes the RDATA at msg[off:off+rdlen], returning
// prev unchanged when it already holds the identical value (skipping
// the interface re-boxing allocation).
func unpackRDataReuse(msg []byte, off, rdlen int, typ Type, prev RData) (RData, error) {
	end := off + rdlen
	if end > len(msg) {
		return nil, errTruncated
	}
	switch typ {
	case TypeA:
		if rdlen != 4 {
			return nil, fmt.Errorf("dnswire: A RDATA length %d", rdlen)
		}
		addr := netip.AddrFrom4([4]byte(msg[off:end]))
		if p, ok := prev.(ARecord); ok && p.Addr == addr {
			return prev, nil
		}
		return ARecord{Addr: addr}, nil
	case TypeAAAA:
		if rdlen != 16 {
			return nil, fmt.Errorf("dnswire: AAAA RDATA length %d", rdlen)
		}
		addr := netip.AddrFrom16([16]byte(msg[off:end]))
		if p, ok := prev.(AAAARecord); ok && p.Addr == addr {
			return prev, nil
		}
		return AAAARecord{Addr: addr}, nil
	case TypeNS:
		var old Name
		if p, ok := prev.(NSRecord); ok {
			old = p.NS
		}
		n, _, err := unpackNameReuse(msg, off, old, "")
		if err != nil {
			return nil, err
		}
		if n == old {
			return prev, nil
		}
		return NSRecord{NS: n}, nil
	case TypeCNAME:
		var old Name
		if p, ok := prev.(CNAMERecord); ok {
			old = p.Target
		}
		n, _, err := unpackNameReuse(msg, off, old, "")
		if err != nil {
			return nil, err
		}
		if n == old {
			return prev, nil
		}
		return CNAMERecord{Target: n}, nil
	case TypePTR:
		var old Name
		if p, ok := prev.(PTRRecord); ok {
			old = p.Target
		}
		n, _, err := unpackNameReuse(msg, off, old, "")
		if err != nil {
			return nil, err
		}
		if n == old {
			return prev, nil
		}
		return PTRRecord{Target: n}, nil
	case TypeSOA:
		old, hadOld := prev.(SOARecord)
		var r SOARecord
		var err error
		var next int
		r.MName, next, err = unpackNameReuse(msg, off, old.MName, "")
		if err != nil {
			return nil, err
		}
		r.RName, next, err = unpackNameReuse(msg, next, old.RName, "")
		if err != nil {
			return nil, err
		}
		if next+20 > len(msg) || next+20 > end {
			return nil, errTruncated
		}
		r.Serial = binary.BigEndian.Uint32(msg[next:])
		r.Refresh = binary.BigEndian.Uint32(msg[next+4:])
		r.Retry = binary.BigEndian.Uint32(msg[next+8:])
		r.Expire = binary.BigEndian.Uint32(msg[next+12:])
		r.Minimum = binary.BigEndian.Uint32(msg[next+16:])
		if hadOld && r == old {
			return prev, nil
		}
		return r, nil
	case TypeMX:
		if rdlen < 3 {
			return nil, errTruncated
		}
		old, hadOld := prev.(MXRecord)
		pref := binary.BigEndian.Uint16(msg[off:])
		n, _, err := unpackNameReuse(msg, off+2, old.MX, "")
		if err != nil {
			return nil, err
		}
		if hadOld && old.Preference == pref && old.MX == n {
			return prev, nil
		}
		return MXRecord{Preference: pref, MX: n}, nil
	case TypeTXT:
		if p, ok := prev.(TXTRecord); ok && txtWireEqual(msg, off, end, p.Strings) {
			return prev, nil
		}
		var r TXTRecord
		for p := off; p < end; {
			l := int(msg[p])
			p++
			if p+l > end {
				return nil, errTruncated
			}
			r.Strings = append(r.Strings, string(msg[p:p+l]))
			p += l
		}
		return r, nil
	case TypeOPT:
		if p, ok := prev.(OPTRecord); ok && bytes.Equal(p.Data, msg[off:end]) {
			return prev, nil
		}
		return OPTRecord{Data: append([]byte(nil), msg[off:end]...)}, nil
	default:
		if p, ok := prev.(UnknownRecord); ok && p.T == typ && bytes.Equal(p.Raw, msg[off:end]) {
			return prev, nil
		}
		return UnknownRecord{T: typ, Raw: append([]byte(nil), msg[off:end]...)}, nil
	}
}

// txtWireEqual reports whether the TXT RDATA at msg[off:end] decodes
// to exactly strs, without allocating. Malformed RDATA never matches,
// so the caller falls through to the strict decoder for the error.
func txtWireEqual(msg []byte, off, end int, strs []string) bool {
	i := 0
	for p := off; p < end; {
		l := int(msg[p])
		p++
		if p+l > end || i >= len(strs) || len(strs[i]) != l {
			return false
		}
		if string(msg[p:p+l]) != strs[i] {
			return false
		}
		p += l
		i++
	}
	return i == len(strs)
}
