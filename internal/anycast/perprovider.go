package anycast

import (
	"encoding/json"
	"fmt"
	"math/bits"
)

// NumProviders is the number of providers in the catalogue.
const NumProviders = 4

// providerIDs is the catalogue in the paper's order, which is also the
// sorted order of the IDs.
var providerIDs = [NumProviders]ProviderID{Cloudflare, Google, NextDNS, Quad9}

// index returns pid's position in ProviderIDs.
func index(pid ProviderID) (int, bool) {
	for i, id := range providerIDs {
		if id == pid {
			return i, true
		}
	}
	return 0, false
}

// Known reports whether pid is one of the catalogue's providers.
func Known(pid ProviderID) bool {
	_, ok := index(pid)
	return ok
}

// PerProvider holds at most one T per catalogue provider, in place: an
// array indexed by the provider's position in ProviderIDs and a mask of
// the positions that are set. The zero value is an empty table, and a
// copy is a deep copy as far as the table goes.
//
// It encodes to the JSON object a map[ProviderID]T encodes to (the
// catalogue order is the sorted key order encoding/json writes), and an
// empty table to null; it decodes either, and {}.
type PerProvider[T any] struct {
	vals [NumProviders]T
	set  uint8
}

// Get returns pid's value and whether it is set; the zero T when not.
func (t *PerProvider[T]) Get(pid ProviderID) (T, bool) {
	i, ok := index(pid)
	if !ok || t.set&(1<<i) == 0 {
		var zero T
		return zero, false
	}
	return t.vals[i], true
}

// Set stores v as pid's value. A provider outside the catalogue is a
// programming error, rejected before any result exists for it, so Set
// panics on one.
func (t *PerProvider[T]) Set(pid ProviderID, v T) {
	i, ok := index(pid)
	if !ok {
		panic(fmt.Sprintf("anycast: no provider %q in the catalogue", pid))
	}
	t.vals[i] = v
	t.set |= 1 << i
}

// Len returns the number of providers set.
func (t *PerProvider[T]) Len() int { return bits.OnesCount8(t.set) }

// All is an iterator over the providers that are set and their values,
// in catalogue order, with the signature of Go's iter.Seq2: it calls
// yield for each until yield returns false. (The module's go 1.22 has no
// range-over-func, so callers call it.)
func (t *PerProvider[T]) All() func(yield func(ProviderID, T) bool) {
	return func(yield func(ProviderID, T) bool) {
		for i, pid := range providerIDs {
			if t.set&(1<<i) != 0 && !yield(pid, t.vals[i]) {
				return
			}
		}
	}
}

// MarshalJSON encodes the table as a map[ProviderID]T encodes.
func (t PerProvider[T]) MarshalJSON() ([]byte, error) {
	if t.set == 0 {
		return []byte("null"), nil
	}
	m := make(map[ProviderID]T, t.Len())
	t.All()(func(pid ProviderID, v T) bool {
		m[pid] = v
		return true
	})
	return json.Marshal(m)
}

// UnmarshalJSON decodes a JSON object keyed by provider, or null, and
// rejects a provider outside the catalogue.
func (t *PerProvider[T]) UnmarshalJSON(b []byte) error {
	var m map[ProviderID]T
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*t = PerProvider[T]{}
	for pid, v := range m {
		if !Known(pid) {
			return fmt.Errorf("anycast: no provider %q in the catalogue", pid)
		}
		t.Set(pid, v)
	}
	return nil
}
