// Package topk provides the top-k machinery of the recommender: a streaming
// bounded min-heap collector. Every engine ranks through it, and the CAP
// engine's top-k view (internal/core/view.go) is refilled from a collector four
// times the size of the largest answer asked of it.
package topk

import (
	"container/heap"
	"sort"
)

// Item is one scored candidate. Ties are broken by ascending ID so rankings
// are deterministic across engines, which lets the test suite compare exact
// result sets between CAP and the baselines.
type Item struct {
	ID    int64
	Score float64
}

// Less orders items by descending score, ascending ID on ties.
func (a Item) Less(b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// Collector accumulates streamed candidates and retains the k best. The zero
// value is unusable; construct with NewCollector.
type Collector struct {
	k    int
	heap itemHeap // min-heap: heap[0] is the weakest retained item
}

// maxPrealloc caps the up-front heap: k bounds retention, not the input.
const maxPrealloc = 1024

// NewCollector returns a collector retaining the k best items (k ≥ 1 is clamped).
func NewCollector(k int) *Collector {
	if k < 1 {
		k = 1
	}
	return &Collector{k: k, heap: make(itemHeap, 0, min(k, maxPrealloc))}
}

// K returns the configured capacity.
func (c *Collector) K() int { return c.k }

// Len returns the number of retained items (≤ k).
func (c *Collector) Len() int { return len(c.heap) }

// Offer submits a candidate; it is retained only if it beats the current
// weakest (or the collector is not yet full). Returns true when retained.
func (c *Collector) Offer(id int64, score float64) bool {
	it := Item{ID: id, Score: score}
	if len(c.heap) < c.k {
		// Appended and sifted up in place: heap.Push would box it, one
		// allocation per retained item of every ranking.
		c.heap = append(c.heap, it)
		heap.Fix(&c.heap, len(c.heap)-1)
		return true
	}
	if !it.Less(c.heap[0]) {
		return false
	}
	c.heap[0] = it
	heap.Fix(&c.heap, 0)
	return true
}

// WouldAccept reports whether a candidate with the given score could enter
// the top-k (used by pruned query evaluation).
func (c *Collector) WouldAccept(score float64) bool {
	if len(c.heap) < c.k {
		return true
	}
	return score > c.heap[0].Score ||
		(score == c.heap[0].Score) // may win on ID tie-break; caller offers
}

// Items returns the retained items in final ranked order (best first),
// leaving the collector intact.
func (c *Collector) Items() []Item {
	out := make([]Item, len(c.heap))
	copy(out, c.heap)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// itemHeap is a min-heap ordered so the WORST retained item is at the root.
type itemHeap []Item

func (h itemHeap) Len() int { return len(h) }

// Less inverts Item.Less: the root must be the weakest element.
func (h itemHeap) Less(i, j int) bool { return h[j].Less(h[i]) }

func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *itemHeap) Push(x any) { *h = append(*h, x.(Item)) }

func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
