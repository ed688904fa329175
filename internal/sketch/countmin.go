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
// using a count-min sketch plus a bounded candidate set. Not safe for
// concurrent use.
type HeavyHitters struct {
	cm *CountMin
	k  int
	// cand holds up to 2k candidates with their sketch estimate at last
	// touch, as a min-heap on (estimate, key descending): the root is the
	// weakest candidate, and of equally weak ones the highest key, so which
	// one an eviction picks is a function of the stream. pos is each
	// candidate key's index in cand.
	cand []Counted
	pos  map[uint64]int
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
	return &HeavyHitters{cm: cm, k: k, cand: make([]Counted, 0, 2*k), pos: make(map[uint64]int, 2*k)}, nil
}

// Offer adds weight for a key and updates the candidate set: a tracked key
// takes its new estimate, an untracked one joins while there is room and
// otherwise replaces the weakest candidate if it beats it. O(log k).
func (h *HeavyHitters) Offer(key uint64, inc uint64) {
	h.cm.Add(key, inc)
	est := h.cm.Count(key)
	if i, tracked := h.pos[key]; tracked {
		h.cand[i].Count = est // estimates only grow: the entry can only sink
		h.down(i)
		return
	}
	if len(h.cand) < 2*h.k {
		h.cand = append(h.cand, Counted{Key: key, Count: est})
		h.pos[key] = len(h.cand) - 1
		h.up(len(h.cand) - 1)
		return
	}
	if est > h.cand[0].Count {
		delete(h.pos, h.cand[0].Key)
		h.cand[0] = Counted{Key: key, Count: est}
		h.pos[key] = 0
		h.down(0)
	}
}

// weaker orders the candidate heap: lower estimate first, higher key first
// on a tie.
func (h *HeavyHitters) weaker(i, j int) bool {
	a, b := h.cand[i], h.cand[j]
	return a.Count < b.Count || (a.Count == b.Count && a.Key > b.Key)
}

func (h *HeavyHitters) swap(i, j int) {
	h.cand[i], h.cand[j] = h.cand[j], h.cand[i]
	h.pos[h.cand[i].Key], h.pos[h.cand[j].Key] = i, j
}

func (h *HeavyHitters) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.weaker(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *HeavyHitters) down(i int) {
	for {
		m, l := i, 2*i+1
		if l < len(h.cand) && h.weaker(l, m) {
			m = l
		}
		if r := l + 1; r < len(h.cand) && h.weaker(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// TopK returns the current top-k candidates in descending estimated count
// (ascending key on ties).
func (h *HeavyHitters) TopK() []Counted {
	out := make([]Counted, 0, len(h.cand))
	for _, c := range h.cand {
		out = append(out, Counted{Key: c.Key, Count: h.cm.Count(c.Key)})
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
	h.cand = h.cand[:0]
	clear(h.pos)
}
