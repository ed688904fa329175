package caar

import (
	"fmt"
	"sync"

	"caar/internal/sketch"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// Trending: per-slot streaming term frequencies over the post stream,
// tracked with the shared heavy-hitters primitive (count-min + candidate
// set; bounded memory regardless of vocabulary size). Ad-ops uses this to steer keyword targeting: "what are people
// talking about on weekday afternoons?"

// TrendingTerm is one trending-term result.
type TrendingTerm struct {
	Term  string `json:"term"`
	Count uint64 `json:"count"` // sketch estimate; never under-counts
}

// trendTracker holds one heavy-hitters tracker per time slot. The slot
// itself is the window — posts bucket by their timestamp's slot, and counts
// accumulate across days — so nothing decays by wall clock as in the hot-key
// layer.
type trendTracker struct {
	mu    sync.Mutex
	slots [timeslot.NumSlots]*sketch.HeavyHitters
}

// trendCapacity is how many top terms each slot retains (requests for
// larger k are clamped).
const trendCapacity = 50

func newTrendTracker() *trendTracker {
	t := &trendTracker{}
	for i := range t.slots {
		hh, err := sketch.NewHeavyHitters(trendCapacity, 0.001, 0.01)
		if err != nil {
			panic("caar: trend tracker sizing: " + err.Error())
		}
		t.slots[i] = hh
	}
	return t
}

// observe records one post's distinct terms under its slot.
func (t *trendTracker) observe(sl timeslot.Slot, vec textproc.SparseVector) {
	if len(vec) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	hh := t.slots[sl]
	for _, term := range vec {
		hh.Offer(uint64(term.ID), 1)
	}
}

// top returns all tracked term IDs of a slot, most frequent first. Callers
// filter before truncating to k: truncating here would discard resolvable
// candidates whenever a higher-counted key fails its vocab lookup.
func (t *trendTracker) top(sl timeslot.Slot) []sketch.Counted {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slots[sl].TopK()
}

// Trending returns up to k terms most frequent in posts made during the
// given slot, most frequent first. Counts are sketch estimates (one-sided:
// never below the true count). k is clamped to the tracker capacity.
func (e *Engine) Trending(slot Slot, k int) ([]TrendingTerm, error) {
	sl, ok := slot.internal()
	if !ok {
		return nil, fmt.Errorf("%w: unknown slot %q", ErrBadConfig, slot)
	}
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("%w: k=%d, want 1..%d", ErrBadConfig, k, MaxK)
	}
	counted := e.trends.top(sl)
	out := make([]TrendingTerm, 0, min(k, len(counted)))
	for _, c := range counted {
		if len(out) == k {
			break
		}
		term := e.pipeline.Vocab.Term(textproc.TermID(c.Key))
		if term == "" {
			continue // unresolvable sketch key; keep scanning for real terms
		}
		out = append(out, TrendingTerm{Term: term, Count: c.Count})
	}
	return out, nil
}
