package kernel

import "slices"

// idSet is a small set of IDs, each carrying one value, kept ascending
// by ID. It holds every ID-keyed set of the kernel's protection
// bookkeeping: a segment's attached domains, a domain's attached
// segments, and a derived group's members. Walks visit it in stored
// order, so the shootdowns they enqueue come out in a deterministic
// order without a sort; fork copies it with append, and destroy walks
// it and truncates it. The nil set is empty, so an empty domain owns
// no storage, and a truncated set keeps its capacity for the pooled
// struct's next incarnation.
type idSet[K ~uint16 | ~uint32, V comparable] []idEntry[K, V]

// idEntry is one member of an idSet.
type idEntry[K ~uint16 | ~uint32, V comparable] struct {
	id K
	v  V
}

// index returns where id sits in the set, or where it would be
// inserted, and whether it is present. (A hand-written search:
// slices.BinarySearchFunc calls its comparator through a function value
// on every probe, and fork and destroy search once per member.)
func (s idSet[K, V]) index(id K) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if s[h].id < id {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(s) && s[lo].id == id
}

// get returns id's value and whether id is in the set.
func (s idSet[K, V]) get(id K) (V, bool) {
	if i, ok := s.index(id); ok {
		return s[i].v, true
	}
	var zero V
	return zero, false
}

// set adds id with value v, or replaces the value of a present id.
func (s *idSet[K, V]) set(id K, v V) {
	i, ok := s.index(id)
	if ok {
		(*s)[i].v = v
		return
	}
	*s = slices.Insert(*s, i, idEntry[K, V]{id: id, v: v})
}

// remove drops id from the set, reporting whether it was present.
func (s *idSet[K, V]) remove(id K) bool {
	i, ok := s.index(id)
	if ok {
		*s = slices.Delete(*s, i, i+1)
	}
	return ok
}
