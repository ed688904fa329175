// Package fca implements the triadic formal concept analysis behind the
// TFCA effectiveness baseline of the evaluation: triadic contexts with the
// TRIAS algorithm (over dyadic contexts and their NextClosure concept
// enumeration), fuzzy contexts with α-cut scaling, and the community
// detection and ad matching built on triadic concepts.
package fca

import (
	"math/bits"
	"strconv"
	"strings"
)

// BitSet is a fixed-capacity bit vector used to represent object and
// attribute sets. The zero value is an empty set of capacity 0; use
// NewBitSet for a working instance.
type BitSet struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitSet returns an empty set over the universe {0, …, n−1}.
func NewBitSet(n int) BitSet {
	if n < 0 {
		n = 0
	}
	return BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// Set adds element i. Out-of-range indices panic, as they indicate a
// programming error in context construction.
func (b BitSet) Set(i int) {
	if i < 0 || i >= b.n {
		panic("fca: bitset index " + strconv.Itoa(i) + " out of range")
	}
	b.words[i/64] |= 1 << (i % 64)
}

// Test reports whether element i is present.
func (b BitSet) Test(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<(i%64)) != 0
}

// Count returns the number of elements.
func (b BitSet) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (b BitSet) IsEmpty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (b BitSet) Clone() BitSet {
	out := BitSet{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

// Fill adds every element of the universe.
func (b BitSet) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// trim zeroes the bits beyond the universe size.
func (b BitSet) trim() {
	if rem := b.n % 64; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// AndWith intersects b with o in place. Capacities must match.
func (b BitSet) AndWith(o BitSet) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Equal reports set equality.
func (b BitSet) Equal(o BitSet) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// IsSubsetOf reports whether every element of b is in o.
func (b BitSet) IsSubsetOf(o BitSet) bool {
	for i := range b.words {
		if b.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for each element in ascending order.
func (b BitSet) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			fn(i)
			w &= w - 1
		}
	}
}

// Elements returns the members in ascending order.
func (b BitSet) Elements() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as "{1, 3, 7}".
func (b BitSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(strconv.Itoa(i))
	})
	sb.WriteByte('}')
	return sb.String()
}
