package textproc

import "math"

// TermID is an interned vocabulary term identifier. Interning keeps the hot
// scoring path free of string hashing.
type TermID uint32

// SparseVector is a term-weighted sparse vector over interned term IDs. It is
// the representation of both ad keyword profiles and user feed contexts.
type SparseVector map[TermID]float64

// Dot returns the inner product ⟨v, w⟩, iterating over the smaller operand.
func (v SparseVector) Dot(w SparseVector) float64 {
	if len(w) < len(v) {
		v, w = w, v
	}
	var sum float64
	for id, x := range v {
		if y, ok := w[id]; ok {
			sum += x * y
		}
	}
	return sum
}

// Norm returns the Euclidean norm ‖v‖₂.
func (v SparseVector) Norm() float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// AddScaled adds s·w into v in place.
func (v SparseVector) AddScaled(w SparseVector, s float64) {
	for id, x := range w {
		v[id] += x * s
	}
}

// Scale multiplies every weight by s in place.
func (v SparseVector) Scale(s float64) {
	for id := range v {
		v[id] *= s
	}
}

// Clone returns a deep copy.
func (v SparseVector) Clone() SparseVector {
	out := make(SparseVector, len(v))
	for id, x := range v {
		out[id] = x
	}
	return out
}

// L2Normalize scales v to unit norm in place; empty or zero vectors are left
// unchanged.
func (v SparseVector) L2Normalize() {
	n := v.Norm()
	if n == 0 {
		return
	}
	v.Scale(1 / n)
}
