package caar

import (
	"fmt"
	"sync"
	"time"

	"caar/internal/sketch"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// Trending: per-slot streaming term frequencies over the post stream,
// tracked with the shared windowed-sketch primitive (count-min +
// heavy-hitters candidate set; bounded memory regardless of vocabulary
// size). Ad-ops uses this to steer keyword targeting: "what are people
// talking about on weekday afternoons?"

// TrendingTerm is one trending-term result.
type TrendingTerm struct {
	Term  string `json:"term"`
	Count uint64 `json:"count"` // sketch estimate; never under-counts
}

// trendTracker holds one windowed-sketch tracker per time slot. The slot
// itself is the window — posts bucket by their timestamp's slot, and
// counts accumulate across days — so each tracker runs in the primitive's
// unwindowed mode (span 0: a single eternal sub-window, timestamps
// ignored) rather than decaying by wall clock like the hot-key layer.
type trendTracker struct {
	mu    sync.Mutex
	slots [timeslot.NumSlots]*sketch.Windowed
}

// trendCapacity is how many top terms each slot retains (requests for
// larger k are clamped).
const trendCapacity = 50

func newTrendTracker() *trendTracker {
	t := &trendTracker{}
	for i := range t.slots {
		w, err := sketch.NewWindowed(trendCapacity, 0.001, 0.01, 0, 1)
		if err != nil {
			panic("caar: trend tracker sizing: " + err.Error())
		}
		t.slots[i] = w
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
	w := t.slots[sl]
	for term := range vec {
		w.Offer(uint64(term), 1, time.Time{})
	}
}

// top returns all tracked term IDs of a slot, most frequent first. Callers
// filter before truncating to k: truncating here would discard resolvable
// candidates whenever a higher-counted key fails its vocab lookup.
func (t *trendTracker) top(sl timeslot.Slot) []sketch.Counted {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slots[sl].TopK(time.Time{}, 0)
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
