package sketch

import (
	"fmt"
	"math"
	"time"
)

// epochUnset marks a Windowed that has not seen a timestamp yet; the first
// Advance anchors the ring to that instant's sub-window.
const epochUnset = math.MinInt64

// Windowed tracks heavy hitters over a sliding time window. The window is
// ring-buffered into n sub-windows of span each: offers land in the current
// sub-window, and advancing time rotates the ring, resetting sub-windows as
// they age out. Decay is therefore stepwise — an observation contributes at
// full weight until its sub-window leaves the ring, then disappears — which
// keeps memory exactly bounded at n sketches regardless of stream rate.
//
// Not safe for concurrent use.
type Windowed struct {
	k     int
	span  time.Duration
	subs  []*HeavyHitters
	cur   int   // index of the current (newest) sub-window
	epoch int64 // absolute sub-window number of subs[cur]
}

// NewWindowed tracks the top k keys per query window with the given
// per-sub-window sketch accuracy. span is the sub-window length and n the
// number of sub-windows retained (so the maximum queryable window is
// n×span).
func NewWindowed(k int, epsilon, delta float64, span time.Duration, n int) (*Windowed, error) {
	if span <= 0 {
		return nil, fmt.Errorf("sketch: sub-window span %v must be positive", span)
	}
	if n < 1 {
		return nil, fmt.Errorf("sketch: sub-window count %d < 1", n)
	}
	subs := make([]*HeavyHitters, n)
	for i := range subs {
		hh, err := NewHeavyHitters(k, epsilon, delta)
		if err != nil {
			return nil, err
		}
		subs[i] = hh
	}
	return &Windowed{k: k, span: span, subs: subs, epoch: epochUnset}, nil
}

// Advance rotates the ring so that subs[cur] is the sub-window containing
// now, resetting any sub-windows that aged out. Time moving backwards (or
// standing still) leaves the ring untouched, so out-of-order offers within
// the resolution of a sub-window are absorbed rather than dropped.
func (w *Windowed) Advance(now time.Time) {
	e := now.UnixNano() / int64(w.span)
	switch {
	case w.epoch == epochUnset:
		w.epoch = e
	case e <= w.epoch:
		// stalled or stepped-back clock: keep accumulating in the
		// current sub-window
	case e-w.epoch >= int64(len(w.subs)):
		// the whole ring aged out at once
		for _, s := range w.subs {
			s.Reset()
		}
		w.cur = 0
		w.epoch = e
	default:
		for w.epoch < e {
			w.cur = (w.cur + 1) % len(w.subs)
			w.subs[w.cur].Reset()
			w.epoch++
		}
	}
}

// Offer adds weight for a key at time now.
func (w *Windowed) Offer(key uint64, inc uint64, now time.Time) {
	w.Advance(now)
	w.subs[w.cur].Offer(key, inc)
}

// covered maps a requested window to the number of newest sub-windows it
// spans: ⌈window/span⌉ clamped to [1, n]. window ≤ 0 requests the full
// ring.
func (w *Windowed) covered(window time.Duration) int {
	if window <= 0 {
		return len(w.subs)
	}
	m := int((window + w.span - 1) / w.span)
	if m < 1 {
		m = 1
	}
	if m > len(w.subs) {
		m = len(w.subs)
	}
	return m
}

// CoveredSpan returns the effective window a query for the given window
// actually reads: covered×span, the requested window rounded up to whole
// sub-windows and clamped to the ring.
func (w *Windowed) CoveredSpan(window time.Duration) time.Duration {
	return w.span * time.Duration(w.covered(window))
}

// sub returns the i-th newest sub-window (0 = current).
func (w *Windowed) sub(i int) *HeavyHitters {
	return w.subs[(w.cur-i+len(w.subs))%len(w.subs)]
}

// estimate sums the key's per-sub-window sketch estimates over the m newest
// sub-windows. Each term is one-sided (never under its sub-window's true
// count), so the sum never under-estimates the windowed count.
func (w *Windowed) estimate(key uint64, m int) uint64 {
	var total uint64
	for i := 0; i < m; i++ {
		total += w.sub(i).cm.Count(key)
	}
	return total
}

// TopK returns the top-k keys over the requested window ending at now, in
// descending estimated count (ascending key on ties).
func (w *Windowed) TopK(now time.Time, window time.Duration) []Counted {
	w.Advance(now)
	m := w.covered(window)
	keys := make(map[uint64]struct{})
	for i := 0; i < m; i++ {
		for key := range w.sub(i).cand {
			keys[key] = struct{}{}
		}
	}
	out := make([]Counted, 0, len(keys))
	for key := range keys {
		out = append(out, Counted{Key: key, Count: w.estimate(key, m)})
	}
	sortCounted(out)
	if len(out) > w.k {
		out = out[:w.k]
	}
	return out
}

// Candidates returns the union of candidate keys across the whole ring —
// every key a query over any window could currently report. Callers use it
// to bound side tables (e.g. key→name maps) to live candidates.
func (w *Windowed) Candidates() []uint64 {
	keys := make(map[uint64]struct{})
	for _, s := range w.subs {
		for key := range s.cand {
			keys[key] = struct{}{}
		}
	}
	out := make([]uint64, 0, len(keys))
	for key := range keys {
		out = append(out, key)
	}
	return out
}

// Total returns the total weight observed in the requested window ending at
// now.
func (w *Windowed) Total(now time.Time, window time.Duration) uint64 {
	w.Advance(now)
	m := w.covered(window)
	var total uint64
	for i := 0; i < m; i++ {
		total += w.sub(i).Total()
	}
	return total
}

// ErrorBound returns the one-sided overestimate bound for windowed counts:
// the sum of each covered sub-window's ε·N bound, which telescopes to
// ε·N_window. For any key, TopK's count ≤ true + ErrorBound with
// probability ≥ 1−δ per sub-window, and count ≥ true always.
func (w *Windowed) ErrorBound(now time.Time, window time.Duration) uint64 {
	w.Advance(now)
	m := w.covered(window)
	var bound uint64
	for i := 0; i < m; i++ {
		bound += w.sub(i).cm.ErrorBound()
	}
	return bound
}
