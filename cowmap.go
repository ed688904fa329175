package caar

import (
	"iter"
	"maps"
)

// cowMap is an immutable map in two layers: a large base shared between
// versions and a small delta of the puts and tombstones made since the base
// was built. with and without return a new version and leave the receiver
// untouched; they clone only the delta, and fold it into a fresh base once
// len(delta)² exceeds len(base), so a mutation copies O(√n) entries
// amortised where a flat copy-on-write map copies n (DESIGN.md §3.3).
//
// Neither layer is written after the version holding it is returned, which
// is what lets any number of versions — and any number of readers of each —
// share them without a lock. The zero value is an empty map.
type cowMap[K comparable, V any] struct {
	base  map[K]V
	delta map[K]cowSlot[V]
	n     int // live keys
}

// cowSlot is one delta entry: a value that shadows the base, or (dead) a
// tombstone over a base key.
type cowSlot[V any] struct {
	v    V
	dead bool
}

// get is at most two map probes and allocates nothing.
func (m cowMap[K, V]) get(k K) (V, bool) {
	if s, ok := m.delta[k]; ok {
		return s.v, !s.dead
	}
	v, ok := m.base[k]
	return v, ok
}

func (m cowMap[K, V]) len() int { return m.n }

// all iterates the live entries in no particular order.
func (m cowMap[K, V]) all() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for k, s := range m.delta {
			if !s.dead && !yield(k, s.v) {
				return
			}
		}
		for k, v := range m.base {
			if _, shadowed := m.delta[k]; !shadowed && !yield(k, v) {
				return
			}
		}
	}
}

// with returns a version in which k maps to v.
func (m cowMap[K, V]) with(k K, v V) cowMap[K, V] {
	if _, ok := m.get(k); !ok {
		m.n++
	}
	m.delta = m.cloneDelta()
	m.delta[k] = cowSlot[V]{v: v}
	return m.folded()
}

// without returns a version that lacks k.
func (m cowMap[K, V]) without(k K) cowMap[K, V] {
	if _, ok := m.get(k); !ok {
		return m
	}
	m.n--
	m.delta = m.cloneDelta()
	if _, inBase := m.base[k]; inBase {
		m.delta[k] = cowSlot[V]{dead: true}
	} else {
		delete(m.delta, k)
	}
	return m.folded()
}

// cloneDelta is the writer's private copy of the delta, never nil.
func (m cowMap[K, V]) cloneDelta() map[K]cowSlot[V] {
	if m.delta == nil {
		return make(map[K]cowSlot[V])
	}
	return maps.Clone(m.delta)
}

// folded merges a delta grown past √len(base) into a fresh base: a fold
// costs O(n) and is due every √n mutations, the same O(√n) a mutation as
// cloning the delta. The receiver's delta is already private to the caller.
func (m cowMap[K, V]) folded() cowMap[K, V] {
	if len(m.delta)*len(m.delta) <= len(m.base) {
		return m
	}
	base := maps.Clone(m.base)
	if base == nil {
		base = make(map[K]V, len(m.delta))
	}
	for k, s := range m.delta {
		if s.dead {
			delete(base, k)
		} else {
			base[k] = s.v
		}
	}
	return cowMap[K, V]{base: base, n: m.n}
}
