package dnswire

import (
	"errors"
	"strings"
)

// Name is a fully-qualified domain name in presentation form, always
// stored with a trailing dot ("example.com."). The root zone is ".".
// Comparison is case-insensitive per RFC 1035 §2.3.3; use Equal or
// Canonical rather than ==.
type Name string

// Name encoding errors.
var (
	ErrNameTooLong  = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel   = errors.New("dnswire: empty label in name")
	ErrBadPointer   = errors.New("dnswire: bad compression pointer")
)

// NewName normalizes s into a Name, appending the trailing dot if
// missing. It does not validate lengths; Pack does.
func NewName(s string) Name {
	if s == "" || s == "." {
		return "."
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return Name(s)
}

// String returns the presentation form.
func (n Name) String() string { return string(n) }

// IsRoot reports whether n is the root name.
func (n Name) IsRoot() bool { return n == "." || n == "" }

// Canonical returns the lower-cased form used as a map key.
func (n Name) Canonical() Name { return Name(strings.ToLower(string(NewName(string(n))))) }

// Equal reports case-insensitive equality.
func (n Name) Equal(m Name) bool { return n == m || n.Canonical() == m.Canonical() }

// Labels splits the name into its labels, excluding the root.
// "a.b.com." → ["a" "b" "com"].
func (n Name) Labels() []string {
	s := strings.TrimSuffix(string(NewName(string(n))), ".")
	if s == "" {
		return nil
	}
	return strings.Split(s, ".")
}

// NumLabels is len(n.Labels()) without building the labels.
func (n Name) NumLabels() int {
	if n.IsRoot() {
		return 0
	}
	c := strings.Count(string(n), ".")
	if n[len(n)-1] != '.' {
		c++
	}
	return c
}

// Parent returns the name with the leftmost label removed.
// "a.b.com." → "b.com.". The parent of the root is the root.
// For a dot-terminated name this is a zero-allocation slice of n,
// which keeps zone-walk loops (delegation and wildcard ancestry)
// off the heap.
func (n Name) Parent() Name {
	s := string(NewName(string(n)))
	i := strings.IndexByte(s, '.')
	if i < 0 || i == len(s)-1 {
		return "."
	}
	return Name(s[i+1:])
}

// IsSubdomainOf reports whether n is equal to or underneath zone.
func (n Name) IsSubdomainOf(zone Name) bool {
	if zone.IsRoot() {
		return true
	}
	nc, zc := string(n.Canonical()), string(zone.Canonical())
	return nc == zc || strings.HasSuffix(nc, "."+zc)
}

// validate checks RFC 1035 length limits.
func (n Name) validate() error {
	if n.IsRoot() {
		return nil
	}
	return validateNameString(string(NewName(string(n))))
}

// validateNameString checks RFC 1035 length limits by scanning the
// normalized (trailing-dot, non-root) presentation form without
// splitting it into label strings.
func validateNameString(s string) error {
	wireLen := 1 // terminal zero octet
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] != '.' {
			continue
		}
		l := i - start
		if l == 0 {
			return ErrEmptyLabel
		}
		if l > 63 {
			return ErrLabelTooLong
		}
		wireLen += 1 + l
		start = i + 1
	}
	if wireLen > 255 {
		return ErrNameTooLong
	}
	return nil
}

// packName appends the wire encoding of n to b, using and updating the
// compression table (suffix → message-relative offset). Offsets beyond
// the 14-bit pointer range are not recorded. A nil table packs without
// compression state — correct for any message whose first name is also
// its last, since a first name can never match an empty table.
func packName(b []byte, n Name, t *compressTable) ([]byte, error) {
	s := string(n)
	if s == "" || s == "." {
		return append(b, 0), nil
	}
	if s[len(s)-1] != '.' {
		s += "." // rare: names are normalized at construction
	}
	if err := validateNameString(s); err != nil {
		return nil, err
	}
	for si := 0; si < len(s); {
		if t != nil {
			if off, ok := t.find(b[t.base:], s[si:]); ok {
				return append(b, byte(0xc0|off>>8), byte(off)), nil
			}
			if off := len(b) - t.base; off < 0x4000 {
				t.add(off)
			}
		}
		dot := si
		for s[dot] != '.' {
			dot++
		}
		b = append(b, byte(dot-si))
		b = append(b, s[si:dot]...)
		si = dot + 1
	}
	return append(b, 0), nil
}

// nameBufSize is the scratch needed to decode any name the decoder
// accepts: growth is capped at 255+64 bytes, checked after writing a
// label of up to 63 bytes plus its dot.
const nameBufSize = 255 + 64 + 64

// unpackName decodes a possibly-compressed name starting at off,
// returning the name and the offset just past it in the original
// (non-pointer-following) stream.
func unpackName(msg []byte, off int) (Name, int, error) {
	var buf [nameBufSize]byte
	n, next, err := unpackNameBuf(msg, off, buf[:])
	if err != nil {
		return "", 0, err
	}
	return Name(buf[:n]), next, nil
}

// unpackNameReuse is unpackName, but when the decoded name equals one
// of the candidates it returns that string instead of allocating a
// fresh one. The comparison against the stack scratch buffer is
// allocation-free.
func unpackNameReuse(msg []byte, off int, old, alt Name) (Name, int, error) {
	var buf [nameBufSize]byte
	n, next, err := unpackNameBuf(msg, off, buf[:])
	if err != nil {
		return "", 0, err
	}
	if len(old) == n && string(old) == string(buf[:n]) {
		return old, next, nil
	}
	if len(alt) == n && string(alt) == string(buf[:n]) {
		return alt, next, nil
	}
	return Name(buf[:n]), next, nil
}

// unpackNameBuf decodes a possibly-compressed name starting at off
// into buf (which must be at least nameBufSize bytes), returning the
// decoded length and the caller's resume offset.
func unpackNameBuf(msg []byte, off int, buf []byte) (n, next int, err error) {
	ptrBudget := 64 // guards against pointer loops
	next = -1       // offset after the first pointer, i.e. the caller's resume point
	for {
		if off >= len(msg) {
			return 0, 0, errTruncated
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if next == -1 {
				next = off + 1
			}
			if n == 0 {
				buf[0] = '.'
				n = 1
			}
			return n, next, nil
		case c&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return 0, 0, errTruncated
			}
			ptr := (c&0x3f)<<8 | int(msg[off+1])
			if next == -1 {
				next = off + 2
			}
			if ptr >= off {
				// A pointer must reference a strictly earlier offset.
				return 0, 0, ErrBadPointer
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return 0, 0, ErrBadPointer
			}
			off = ptr
		case c&0xc0 != 0:
			return 0, 0, ErrBadPointer
		default:
			if off+1+c > len(msg) {
				return 0, 0, errTruncated
			}
			n += copy(buf[n:], msg[off+1:off+1+c])
			buf[n] = '.'
			n++
			if n > 255+64 {
				return 0, 0, ErrNameTooLong
			}
			off += 1 + c
		}
	}
}
