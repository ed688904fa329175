// Package topk provides the top-k machinery of the recommender: a streaming
// bounded min-heap collector. Every engine ranks through it, and the CAP
// engine's top-k view (internal/core/view.go) is refilled from a collector four
// times the size of the largest answer asked of it.
package topk

import (
	"cmp"
	"container/heap"
	"slices"
)

// Item is one scored candidate. Ties are broken by ascending ID so rankings
// are deterministic across engines, which lets the test suite compare exact
// result sets between CAP and the baselines. Slot is the caller's dense handle
// for the candidate (the engines' ad slot), carried along and never compared.
type Item struct {
	ID    int64
	Score float64
	Slot  uint32
}

// Less orders items by descending score, ascending ID on ties.
func (a Item) Less(b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// Collector accumulates streamed candidates and retains the k best. The zero
// value is unusable until Reset; construct with NewCollector or Reset.
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

// Reset empties the collector and makes it retain the k best items (k ≥ 1 is
// clamped), keeping the storage it has grown: a caller that ranks again and
// again reuses one collector.
func (c *Collector) Reset(k int) {
	c.k, c.heap = max(k, 1), c.heap[:0]
}

// K returns the configured capacity.
func (c *Collector) K() int { return c.k }

// Len returns the number of retained items (≤ k).
func (c *Collector) Len() int { return len(c.heap) }

// Offer submits a candidate; it is retained only if it beats the current
// weakest (or the collector is not yet full). Returns true when retained.
func (c *Collector) Offer(id int64, score float64) bool { return c.OfferSlot(id, 0, score) }

// OfferSlot is Offer for a candidate with a slot.
func (c *Collector) OfferSlot(id int64, slot uint32, score float64) bool {
	it := Item{ID: id, Score: score, Slot: slot}
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
// leaving the collector intact. The result is its one allocation.
func (c *Collector) Items() []Item {
	out := slices.Clone(c.heap)
	slices.SortFunc(out, byRank)
	return out
}

// Sorted sorts the retained items in place into final ranked order and
// returns them, allocating nothing. They are the collector's storage: valid
// until its next Reset, which it needs before it takes another offer.
func (c *Collector) Sorted() []Item {
	slices.SortFunc(c.heap, byRank)
	return c.heap
}

// byRank compares items in final ranked order.
func byRank(a, b Item) int {
	if o := cmp.Compare(b.Score, a.Score); o != 0 {
		return o
	}
	return cmp.Compare(a.ID, b.ID)
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
