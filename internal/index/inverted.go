// Package index provides the ad-side indexes of the recommender: a keyword
// inverted index that turns a message's term vector into the list of ads
// whose text score it moves (the delta lists at the heart of the CAP
// engine), and a spatial/static index that pre-filters ads by geographic
// cell and ranks the text-silent remainder by static score.
package index

import (
	"cmp"
	"slices"

	"caar/internal/adstore"
	"caar/internal/textproc"
)

// posting is one (ad, term weight) entry of an inverted list.
type posting struct {
	ad adstore.AdID
	w  float64
}

// Delta is the text-score contribution of one message (or one query context)
// to one ad: Coeff = Σ_τ msg[τ]·ad[τ] over the terms they share.
type Delta struct {
	Ad    adstore.AdID
	Coeff float64
}

// Inverted is the keyword inverted index over ad term vectors.
//
// Inverted is not safe for concurrent mutation; the engine serializes ad
// registration. Lookups (DeltaList) are safe concurrently with each other.
type Inverted struct {
	lists map[textproc.TermID][]posting
	// terms remembers each ad's term IDs so removal is O(|ad terms|·list).
	terms    map[adstore.AdID][]textproc.TermID
	postings int
}

// NewInverted returns an empty inverted index.
func NewInverted() *Inverted {
	return &Inverted{
		lists: make(map[textproc.TermID][]posting),
		terms: make(map[adstore.AdID][]textproc.TermID),
	}
}

// Len returns the number of indexed ads.
func (ix *Inverted) Len() int { return len(ix.terms) }

// Postings returns the total number of (term, ad) pairs, a memory diagnostic.
func (ix *Inverted) Postings() int { return ix.postings }

// Add indexes an ad's term vector. Re-adding an ad replaces its entry.
func (ix *Inverted) Add(id adstore.AdID, vec textproc.SparseVector) {
	if _, exists := ix.terms[id]; exists {
		ix.Remove(id)
	}
	ts := make([]textproc.TermID, 0, len(vec))
	for term, w := range vec {
		ix.lists[term] = append(ix.lists[term], posting{ad: id, w: w})
		ts = append(ts, term)
	}
	ix.terms[id] = ts
	ix.postings += len(ts)
}

// Remove un-indexes an ad. Removing an unknown ad is a no-op.
func (ix *Inverted) Remove(id adstore.AdID) {
	ts, ok := ix.terms[id]
	if !ok {
		return
	}
	for _, term := range ts {
		list := ix.lists[term]
		for i := range list {
			if list[i].ad == id {
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
	delete(ix.terms, id)
	ix.postings -= len(ts)
}

// DeltaList computes, for every ad sharing at least one term with vec, the
// exact text-score contribution Σ_τ vec[τ]·ad[τ]. This runs once per posted
// message and its result is shared across all followers (fan-out sharing).
// The result order is deterministic (ascending ad ID).
func (ix *Inverted) DeltaList(vec textproc.SparseVector) []Delta {
	acc := make(map[adstore.AdID]float64)
	for term, mw := range vec {
		for _, p := range ix.lists[term] {
			acc[p.ad] += mw * p.w
		}
	}
	if len(acc) == 0 {
		return nil
	}
	out := make([]Delta, 0, len(acc))
	for ad, c := range acc {
		out = append(out, Delta{Ad: ad, Coeff: c})
	}
	slices.SortFunc(out, func(x, y Delta) int { return cmp.Compare(x.Ad, y.Ad) })
	return out
}

// ListLen returns the posting-list length of a term (0 when absent), used by
// workload diagnostics.
func (ix *Inverted) ListLen(term textproc.TermID) int {
	return len(ix.lists[term])
}
