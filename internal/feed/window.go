package feed

import (
	"math"
	"time"

	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// rebuildInterval bounds floating-point drift: after this many mutations the
// aggregate vector is recomputed exactly from the live entries.
const rebuildInterval = 256

// Entry is one message of a feed window together with its decay weight.
type Entry struct {
	Msg Message
	// wRef is the message's decay weight at the window's reference time. A
	// resident entry (Entries) stores it divided by the window's scale; an
	// evicted entry (Push) carries the true weight at the reference time it
	// left under.
	wRef float64
}

// Window is a per-user sliding feed window: it keeps the most recent Cap
// messages and maintains their exponentially time-decayed aggregate term
// vector incrementally.
//
// Weights follow the pure exponential exp(−λ·(read − post)): a message
// stamped after the read time (clock skew, out-of-order delivery) weighs
// slightly more than 1 until wall time catches up. This keeps the incremental
// algebra exact; callers that need a hard cap clamp at the read site.
//
// The aggregate uses the epoch-rescaling representation (DESIGN.md §3.1):
// weights are relative to a moving reference time `ref`, advanced to each new
// message's timestamp, and are stored divided by one scalar `scale`, so that
// advancing the reference is one multiplication of the scalar rather than a
// sweep of the aggregate. Reading the context at time q applies one global
// factor scale × decay.Between(ref, q). A read is O(1) in the window size and
// a push O(|terms of the message pushed and of the one evicted|) — plus a
// sweep of the window's vocabulary once per rebuildInterval mutations, and
// once whenever the scalar has to be folded back in (below 1e-150).
//
// Window is not safe for concurrent use; the engine shards windows by user.
type Window struct {
	cap    int
	decay  timeslot.Decay
	ref    time.Time
	refSet bool
	items  []Entry               // FIFO: items[0] is oldest; wRef divided by scale
	agg    textproc.SparseVector // Σ wRef·vec over items, divided by scale
	scale  float64
	ops    int
}

// NewWindow creates a window holding at most capacity messages (minimum 1).
func NewWindow(capacity int, decay timeslot.Decay) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{
		cap:   capacity,
		decay: decay,
		items: make([]Entry, 0, capacity),
		agg:   textproc.SparseVector{},
		scale: 1,
	}
}

// Len returns the number of resident messages.
func (w *Window) Len() int { return len(w.items) }

// Ref returns the current reference time (zero before the first push).
func (w *Window) Ref() time.Time { return w.ref }

// Push inserts a message, evicting the oldest resident message when the
// window is full. It returns the evicted entry (valid when ok is true) so the
// caller can propagate the negative score delta — when it sees fit: the
// weight is the pure exponential of reference − post time, so it can be
// re-derived at any later reference.
func (w *Window) Push(m Message) (evicted Entry, ok bool) {
	if len(w.items) == w.cap {
		evicted, ok = w.popOldest()
	}
	w.advanceRef(m.Time)
	// The new message's weight at ref: ref advanced to max(ref, m.Time), so
	// weight = decay of (ref − m.Time), which is 1 when the message is the
	// newest (the common case) and < 1 for out-of-order arrivals.
	e := Entry{Msg: m, wRef: w.decay.WeightAt(w.ref.Sub(m.Time)) / w.scale}
	w.items = append(w.items, e)
	w.agg.AddScaled(m.Vec, e.wRef)
	w.maybeRebuild()
	return evicted, ok
}

// popOldest removes the oldest entry, subtracting its aggregate contribution,
// and returns it at its true weight. A term whose true weight returns to
// (numerically) zero leaves the aggregate so stale terms do not accumulate.
func (w *Window) popOldest() (Entry, bool) {
	if len(w.items) == 0 {
		return Entry{}, false
	}
	e := w.items[0]
	copy(w.items, w.items[1:])
	w.items = w.items[:len(w.items)-1]
	for id, x := range e.Msg.Vec {
		if nv := w.agg[id] - x*e.wRef; math.Abs(nv)*w.scale < 1e-12 {
			delete(w.agg, id)
		} else {
			w.agg[id] = nv
		}
	}
	w.maybeRebuild()
	e.wRef *= w.scale
	return e, true
}

// advanceRef moves the reference time forward to t (never backward): every
// weight decays by the same factor, which goes into the scale. When the scale
// risks underflow it is folded back into the stored values; a gap long enough
// to flush it to exactly 0 (exp(-x) does near x ≈ 745) has aged every
// resident message to weight zero, and dividing the next push by it would
// poison the aggregate, so the values are zeroed instead.
func (w *Window) advanceRef(t time.Time) {
	if !w.refSet {
		w.ref = t
		w.refSet = true
		return
	}
	if !t.After(w.ref) {
		return
	}
	w.scale *= w.decay.Between(w.ref, t)
	w.ref = t
	if w.scale >= 1e-150 {
		return
	}
	if w.scale > 0 {
		w.agg.Scale(w.scale)
	} else {
		clear(w.agg)
	}
	for i := range w.items {
		w.items[i].wRef *= w.scale
	}
	w.scale = 1
}

// maybeRebuild recomputes the aggregate exactly after enough incremental
// mutations to cap floating-point drift.
func (w *Window) maybeRebuild() {
	w.ops++
	if w.ops < rebuildInterval {
		return
	}
	w.ops = 0
	agg := make(textproc.SparseVector, len(w.agg))
	for _, e := range w.items {
		agg.AddScaled(e.Msg.Vec, e.wRef)
	}
	w.agg = agg
}

// ContextRef returns the internal aggregate as stored, without copying, plus
// the factor that converts it to query time q: the window's scale times the
// decay from Ref() to q. Hot paths use this to avoid the clone; the returned
// vector must not be mutated, and means nothing without the factor.
func (w *Window) ContextRef(q time.Time) (vec textproc.SparseVector, factor float64) {
	f := w.scale
	if w.refSet {
		f *= w.decay.Between(w.ref, q)
	}
	return w.agg, f
}

// Entries returns the resident entries oldest-first. The slice is shared;
// callers must not mutate it.
func (w *Window) Entries() []Entry { return w.items }
