package textproc

import (
	"cmp"
	"math"
	"slices"
)

// TermID is an interned vocabulary term identifier. Interning keeps the hot
// scoring path free of string hashing.
type TermID uint32

// Term is one entry of a sparse vector: a term and its weight.
type Term struct {
	ID TermID
	W  float64
}

// SparseVector is a term-weighted sparse vector over interned term IDs, the
// representation of both ad keyword profiles and user feed contexts. It is
// sorted by ascending ID with no ID twice, and is not modified once built
// (NewVector, Bag), so every sum over its terms runs in one order: ascending
// term ID. Two computations of the same product therefore agree to the bit.
type SparseVector []Term

// NewVector sorts terms by ID in place, stably, and folds each run of one ID
// into one term whose weight is the run's sum, added in input order. It
// returns the folded prefix of terms. Terms already in order are not sorted.
func NewVector(terms []Term) SparseVector {
	byID := func(x, y Term) int { return cmp.Compare(x.ID, y.ID) }
	if !slices.IsSortedFunc(terms, byID) {
		slices.SortStableFunc(terms, byID)
	}
	n := 0
	for i, t := range terms {
		if i > 0 && t.ID == terms[n-1].ID {
			terms[n-1].W += t.W
			continue
		}
		terms[n] = t
		n++
	}
	return terms[:n]
}

// Bag returns the L2-normalized vector of a bag of term IDs: each distinct
// term weighs its count times weight(id). An empty bag gives an empty vector.
func Bag(ids []TermID, weight func(TermID) float64) SparseVector {
	terms := make([]Term, len(ids))
	for i, id := range ids {
		terms[i] = Term{ID: id, W: 1}
	}
	return weigh(NewVector(terms), weight)
}

// weigh multiplies each term's weight by weight(id) and L2-normalizes vec,
// in place and in ascending term order.
func weigh(vec SparseVector, weight func(TermID) float64) SparseVector {
	var sum float64
	for i := range vec {
		vec[i].W *= weight(vec[i].ID)
		sum += vec[i].W * vec[i].W
	}
	if sum > 0 {
		inv := 1 / math.Sqrt(sum)
		for i := range vec {
			vec[i].W *= inv
		}
	}
	return vec
}

// Dot returns the inner product ⟨v, w⟩, a merge join summing the shared terms'
// products in ascending term order. The product is rounded before it is added
// (the conversion forbids a fused multiply-add), so ⟨v, w⟩ and ⟨w, v⟩, and
// index.Accumulator.DeltaList's coefficient, are the same float.
func (v SparseVector) Dot(w SparseVector) float64 {
	var sum float64
	for i, j := 0, 0; i < len(v) && j < len(w); {
		switch {
		case v[i].ID < w[j].ID:
			i++
		case v[i].ID > w[j].ID:
			j++
		default:
			sum += float64(v[i].W * w[j].W)
			i, j = i+1, j+1
		}
	}
	return sum
}
