// Package index provides the ad-side indexes of the recommender: a keyword
// inverted index that turns a message's term vector into the list of ads
// whose text score it moves (the delta lists at the heart of the CAP
// engine), and a spatial/static index that pre-filters ads by geographic
// cell and ranks the text-silent remainder by static score.
package index

import (
	"cmp"
	"math/bits"
	"slices"

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
// to one ad: Coeff = Σ_τ msg[τ]·ad[τ] over the terms they share.
type Delta struct {
	Ad    adstore.AdID
	Coeff float64
}

// indexedAd is what the index remembers per ad: its term IDs, so removal is
// O(|ad terms|·list), and its accumulator slot.
type indexedAd struct {
	terms []textproc.TermID
	slot  uint32
}

// Inverted is the keyword inverted index over ad term vectors.
//
// Inverted is not safe for concurrent use, lookups included: DeltaList
// accumulates in space the index owns. Every engine owns its index and calls
// it under its shard lock.
type Inverted struct {
	lists    map[textproc.TermID][]posting
	ads      map[adstore.AdID]indexedAd
	postings int

	// DeltaList's accumulator, indexed by slot. Slots are dense per index,
	// not per AdID: an ID is an arbitrary int64 (the facade mints them
	// densely; tests, and a catalogue restored in another order, need not be),
	// and an array cannot be sized by one. sum[slot] is the running sum and
	// touched has a bit per slot with a non-empty one; both are all zero
	// between calls. Slots are handed out in registration order — ascending
	// ad ID when IDs are minted in order, which is what makes the result
	// nearly sorted before it is sorted — and a removed ad's slot is reused.
	adOf    []adstore.AdID
	sum     []float64
	touched []uint64
	free    []uint32
	out     []Delta
}

// NewInverted returns an empty inverted index.
func NewInverted() *Inverted {
	return &Inverted{
		lists: make(map[textproc.TermID][]posting),
		ads:   make(map[adstore.AdID]indexedAd),
	}
}

// Len returns the number of indexed ads.
func (ix *Inverted) Len() int { return len(ix.ads) }

// Postings returns the total number of (term, ad) pairs, a memory diagnostic.
func (ix *Inverted) Postings() int { return ix.postings }

// Add indexes an ad's term vector. Re-adding an ad replaces its entry.
func (ix *Inverted) Add(id adstore.AdID, vec textproc.SparseVector) {
	if _, exists := ix.ads[id]; exists {
		ix.Remove(id)
	}
	var slot uint32
	if n := len(ix.free); n > 0 {
		slot, ix.free = ix.free[n-1], ix.free[:n-1]
		ix.adOf[slot] = id
	} else {
		slot = uint32(len(ix.adOf))
		ix.adOf, ix.sum = append(ix.adOf, id), append(ix.sum, 0)
		if int(slot>>6) == len(ix.touched) {
			ix.touched = append(ix.touched, 0)
		}
	}
	ts := make([]textproc.TermID, 0, len(vec))
	for term, w := range vec {
		ix.lists[term] = append(ix.lists[term], posting{slot: slot, w: w})
		ts = append(ts, term)
	}
	ix.ads[id] = indexedAd{terms: ts, slot: slot}
	ix.postings += len(ts)
}

// Remove un-indexes an ad. Removing an unknown ad is a no-op.
func (ix *Inverted) Remove(id adstore.AdID) {
	a, ok := ix.ads[id]
	if !ok {
		return
	}
	for _, term := range a.terms {
		list := ix.lists[term]
		for i := range list {
			if list[i].slot == a.slot {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(ix.lists, term)
		} else {
			ix.lists[term] = list
		}
	}
	delete(ix.ads, id)
	ix.free = append(ix.free, a.slot)
	ix.postings -= len(a.terms)
}

// DeltaList computes, for every ad sharing at least one term with vec, the
// exact text-score contribution Σ_τ vec[τ]·ad[τ]. This runs once per message
// some candidate buffer needs (fan-out sharing keeps the result for every
// follower) and once per buffer rebuilt from a window aggregate. The result
// is the caller's, ascending by ad ID.
func (ix *Inverted) DeltaList(vec textproc.SparseVector) []Delta {
	for term, mw := range vec {
		for _, p := range ix.lists[term] {
			ix.touched[p.slot>>6] |= 1 << (p.slot & 63)
			ix.sum[p.slot] += mw * p.w
		}
	}
	// Collected in slot order, which the sort finds already ascending by ad
	// — one pass — to the extent that ads were registered in ID order.
	out := ix.out[:0]
	for w, word := range ix.touched {
		for ix.touched[w] = 0; word != 0; word &= word - 1 {
			slot := w<<6 | bits.TrailingZeros64(word)
			out = append(out, Delta{Ad: ix.adOf[slot], Coeff: ix.sum[slot]})
			ix.sum[slot] = 0
		}
	}
	ix.out = out
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(x, y Delta) int { return cmp.Compare(x.Ad, y.Ad) })
	return slices.Clone(out)
}
