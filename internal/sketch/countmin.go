// Package sketch provides streaming frequency summaries: a count-min sketch
// and a heavy-hitters tracker built on it. The engine uses them to surface
// trending topics per time slot from the post stream in O(1) memory — the
// signal ad-ops uses to steer keyword targeting.
package sketch

import (
	"fmt"
	"math"
)

// CountMin is a count-min sketch: a fixed-size frequency summary with
// one-sided error. Count(key) never under-estimates the true count and
// over-estimates by at most ε·N with probability ≥ 1−δ, where N is the
// total added weight.
//
// Not safe for concurrent use.
type CountMin struct {
	width  int
	depth  int
	counts []uint64 // depth × width, row-major
	total  uint64
}

// NewCountMin sizes the sketch for error bound epsilon at confidence 1−delta.
func NewCountMin(epsilon, delta float64) (*CountMin, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("sketch: epsilon %v outside (0,1)", epsilon)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("sketch: delta %v outside (0,1)", delta)
	}
	width := int(math.Ceil(math.E / epsilon))
	depth := int(math.Ceil(math.Log(1 / delta)))
	if depth < 1 {
		depth = 1
	}
	return &CountMin{
		width:  width,
		depth:  depth,
		counts: make([]uint64, width*depth),
	}, nil
}

// Total returns the total added weight N.
func (c *CountMin) Total() uint64 { return c.total }

// splitmix64 is the 64-bit finalizer used as the row hash family: mixing
// key ⊕ seed through it gives independent-enough hash rows.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rowSeed derives a per-row seed.
func rowSeed(row int) uint64 {
	return splitmix64(uint64(row+1) * 0x9e3779b97f4a7c15)
}

func (c *CountMin) slot(row int, key uint64) int {
	h := splitmix64(key ^ rowSeed(row))
	return row*c.width + int(h%uint64(c.width))
}

// Add increases key's count by inc.
func (c *CountMin) Add(key uint64, inc uint64) {
	for row := 0; row < c.depth; row++ {
		c.counts[c.slot(row, key)] += inc
	}
	c.total += inc
}

// Count returns the estimated count of key (never below the true count).
func (c *CountMin) Count(key uint64) uint64 {
	min := uint64(math.MaxUint64)
	for row := 0; row < c.depth; row++ {
		if v := c.counts[c.slot(row, key)]; v < min {
			min = v
		}
	}
	return min
}

// Reset zeroes the sketch for reuse.
func (c *CountMin) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
	c.total = 0
}

// ErrorBound returns the one-sided overestimate bound ε·N for the stream
// seen so far, where ε = e/width: Count(key) ≤ true + ErrorBound() with
// probability ≥ 1−δ, and Count(key) ≥ true always.
func (c *CountMin) ErrorBound() uint64 {
	return uint64(math.Ceil(math.E / float64(c.width) * float64(c.total)))
}

// Counted is one heavy-hitter result.
type Counted struct {
	Key   uint64
	Count uint64
}

// HeavyHitters tracks the approximate top-k most frequent keys of a stream
// using a count-min sketch plus a bounded candidate map. Not safe for
// concurrent use.
type HeavyHitters struct {
	cm   *CountMin
	k    int
	cand map[uint64]uint64 // candidate key → sketch estimate at last touch
}

// NewHeavyHitters tracks the top k keys with the given sketch accuracy.
func NewHeavyHitters(k int, epsilon, delta float64) (*HeavyHitters, error) {
	if k < 1 {
		return nil, fmt.Errorf("sketch: k %d < 1", k)
	}
	cm, err := NewCountMin(epsilon, delta)
	if err != nil {
		return nil, err
	}
	return &HeavyHitters{cm: cm, k: k, cand: make(map[uint64]uint64, 2*k)}, nil
}

// Offer adds weight for a key and updates the candidate set.
func (h *HeavyHitters) Offer(key uint64, inc uint64) {
	h.cm.Add(key, inc)
	est := h.cm.Count(key)
	if _, tracked := h.cand[key]; tracked {
		h.cand[key] = est
		return
	}
	if len(h.cand) < 2*h.k {
		h.cand[key] = est
		return
	}
	// Evict the weakest candidate if the newcomer beats it.
	weakestKey, weakest := uint64(0), uint64(math.MaxUint64)
	for ck, cv := range h.cand {
		if cv < weakest {
			weakestKey, weakest = ck, cv
		}
	}
	if est > weakest {
		delete(h.cand, weakestKey)
		h.cand[key] = est
	}
}

// TopK returns the current top-k candidates in descending estimated count
// (ascending key on ties).
func (h *HeavyHitters) TopK() []Counted {
	out := make([]Counted, 0, len(h.cand))
	for key := range h.cand {
		out = append(out, Counted{Key: key, Count: h.cm.Count(key)})
	}
	sortCounted(out)
	if len(out) > h.k {
		out = out[:h.k]
	}
	return out
}

// sortCounted orders results in descending count, ascending key on ties.
// Insertion sort: candidate sets are ≤ 2k per sub-window.
func sortCounted(out []Counted) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if b.Count > a.Count || (b.Count == a.Count && b.Key < a.Key) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
}

// Total returns the total weight observed.
func (h *HeavyHitters) Total() uint64 { return h.cm.Total() }

// Reset clears the tracker.
func (h *HeavyHitters) Reset() {
	h.cm.Reset()
	h.cand = make(map[uint64]uint64, 2*h.k)
}
