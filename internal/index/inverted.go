// Package index provides the ad-side indexes of the recommender: a keyword
// inverted index that turns a message's term vector into the list of ads
// whose text score it moves (the delta lists at the heart of the CAP
// engine), and a spatial/static index that pre-filters ads by geographic
// cell and ranks the text-silent remainder by static score.
//
// Both name an ad by its slot: a dense uint32 the inverted index assigns at
// registration, which the engine's per-ad tables are indexed by. A delta
// list is ordered by slot, and so is every structure built from one; the ad
// ID stays at the edges, where an ad is registered, withdrawn or ranked.
package index

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"caar/internal/adstore"
	"caar/internal/textproc"
)

// posting is one (ad, term weight) entry of an inverted list; the ad is named
// by its accumulator slot.
type posting struct {
	slot uint32
	w    float64
}

// Delta is the text-score contribution of one message (or one query context)
// to the ad in Slot: Coeff = Σ_τ msg[τ]·ad[τ] over the terms they share. It is
// 12 bytes: a candidate buffer's entries are Deltas too, and per-entry bytes
// are what a buffer per reader and a list per post multiply.
type Delta struct {
	Slot  uint32
	Coeff Packed
}

// Packed is a float64 kept as two 32-bit halves, so that it needs only 4-byte
// alignment and a Delta packs into 12 bytes instead of 16. Packing and
// unpacking copy the bits: nothing is rounded.
type Packed [2]uint32

// Pack returns x packed.
func Pack(x float64) Packed {
	b := math.Float64bits(x)
	return Packed{uint32(b), uint32(b >> 32)}
}

// Float64 returns the packed value.
func (p Packed) Float64() float64 { return math.Float64frombits(uint64(p[0]) | uint64(p[1])<<32) }

// indexedAd is what the index remembers per ad: its (immutable) vector, whose
// terms make removal O(|ad terms|·list), and its accumulator slot.
type indexedAd struct {
	vec  textproc.SparseVector
	slot uint32
}

// Inverted is the keyword inverted index over ad term vectors, and the one
// allocator of ad slots.
//
// Lookups only read the index — DeltaList accumulates in an Accumulator the
// caller owns — so any number of them may run at once; Add, Remove and
// Release need the index to themselves. The engine's shards share one index,
// read it under their own shard lock and write it holding every one.
type Inverted struct {
	lists    map[textproc.TermID][]posting
	ads      map[adstore.AdID]indexedAd
	postings atomic.Int64 // read without the index to itself (Postings)

	// Slots are dense per index, not per AdID: an ID is an arbitrary int64
	// (the facade mints them densely; tests, and a catalogue restored in
	// another order, need not be), and an array cannot be sized by one. A
	// removed ad's slot is retired, not freed: it goes back to free only when
	// the owner of the tables indexed by slot releases it, because until then
	// something may still hold the slot under the removed ad's identity.
	slots int // slots ever handed out
	free  []uint32

	// spare lends Inverted.DeltaList an Accumulator, so a caller without one
	// of its own pays for the working space once, not on every call.
	spare sync.Pool
}

// Accumulator is DeltaList's working space, indexed by the index's slots:
// sum[slot] is the running sum and touched has a bit per slot with a
// non-empty one; both are all zero between calls. One caller at a time uses
// an accumulator; each of an engine's shards owns one. It grows with the
// index it is used on.
type Accumulator struct {
	sum     []float64
	touched []uint64
	out     []Delta
}

// NewInverted returns an empty inverted index.
func NewInverted() *Inverted {
	return &Inverted{
		lists: make(map[textproc.TermID][]posting),
		ads:   make(map[adstore.AdID]indexedAd),
		spare: sync.Pool{New: func() any { return new(Accumulator) }},
	}
}

// Postings returns the total number of (term, ad) pairs, a memory
// diagnostic. It reads an atomic, so it needs no lock.
func (ix *Inverted) Postings() int { return int(ix.postings.Load()) }

// Add indexes an ad's term vector and returns the slot it assigned: a
// released one if there is one, else the next new one. Re-adding an ad
// replaces its entry, in a new slot.
func (ix *Inverted) Add(id adstore.AdID, vec textproc.SparseVector) uint32 {
	if _, exists := ix.ads[id]; exists {
		ix.Remove(id)
	}
	var slot uint32
	if n := len(ix.free); n > 0 {
		slot, ix.free = ix.free[n-1], ix.free[:n-1]
	} else {
		slot = uint32(ix.slots)
		ix.slots++
	}
	for _, t := range vec {
		ix.lists[t.ID] = append(ix.lists[t.ID], posting{slot: slot, w: t.W})
	}
	ix.ads[id] = indexedAd{vec: vec, slot: slot}
	ix.postings.Add(int64(len(vec)))
	return slot
}

// Remove un-indexes an ad and returns the slot it had, which stays retired
// until Release. Removing an unknown ad is a no-op that reports false.
func (ix *Inverted) Remove(id adstore.AdID) (slot uint32, ok bool) {
	a, ok := ix.ads[id]
	if !ok {
		return 0, false
	}
	for _, t := range a.vec {
		list := ix.lists[t.ID]
		for i := range list {
			if list[i].slot == a.slot {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(ix.lists, t.ID)
		} else {
			ix.lists[t.ID] = list
		}
	}
	delete(ix.ads, id)
	ix.postings.Add(-int64(len(a.vec)))
	return a.slot, true
}

// Release lets Add hand a retired slot out again.
func (ix *Inverted) Release(slot uint32) { ix.free = append(ix.free, slot) }

// DeltaList is Accumulator.DeltaList in an accumulator the index lends, for
// a caller that keeps none of its own.
func (ix *Inverted) DeltaList(vec textproc.SparseVector) []Delta {
	acc := ix.spare.Get().(*Accumulator)
	defer ix.spare.Put(acc)
	return acc.DeltaList(ix, vec)
}

// DeltaList computes, for every ad of ix sharing at least one term with vec,
// the exact text-score contribution Σ_τ vec[τ]·ad[τ]. This runs once per
// message some candidate buffer needs (fan-out sharing keeps the result for
// every follower on every shard) and once per buffer rebuilt from a window
// aggregate. Terms are walked in ascending order and each product is rounded
// before it is added, as in textproc.SparseVector.Dot, so a coefficient is
// bit for bit ad.Vec.Dot(vec). The result is the caller's, ascending by slot.
func (acc *Accumulator) DeltaList(ix *Inverted, vec textproc.SparseVector) []Delta {
	if out := acc.Deltas(ix, vec); len(out) > 0 {
		return slices.Clone(out)
	}
	return nil
}

// Deltas is DeltaList in the accumulator's own space: the result is the
// caller's to read and overwrite until the accumulator's next call.
func (acc *Accumulator) Deltas(ix *Inverted, vec textproc.SparseVector) []Delta {
	if n := ix.slots; len(acc.sum) < n {
		acc.sum = append(acc.sum, make([]float64, n-len(acc.sum))...)
		acc.touched = append(acc.touched, make([]uint64, (n+63)>>6-len(acc.touched))...)
	}
	for _, t := range vec {
		for _, p := range ix.lists[t.ID] {
			acc.touched[p.slot>>6] |= 1 << (p.slot & 63)
			acc.sum[p.slot] += float64(t.W * p.w)
		}
	}
	out := acc.out[:0]
	for w, word := range acc.touched {
		for acc.touched[w] = 0; word != 0; word &= word - 1 {
			slot := w<<6 | bits.TrailingZeros64(word)
			out = append(out, Delta{Slot: uint32(slot), Coeff: Pack(acc.sum[slot])})
			acc.sum[slot] = 0
		}
	}
	acc.out = out
	return out
}
