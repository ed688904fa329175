package feed

import (
	"slices"
	"time"

	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// Window is a per-user sliding feed window: a ring of the most recent Cap
// posts, each a pointer to the post's one record, and a reference time, the
// latest post time pushed.
//
// A message's weight is the pure exponential of its age at the reference,
// reference − post time, which is never negative: 1 for the newest message,
// < 1 for an older or out-of-order one. The window keeps no aggregate: a push
// is one slot store, and the few readers that need the decayed term vector
// sum it from the ring (Aggregate), exactly, at most Cap message vectors.
//
// Window is not safe for concurrent use; the engine shards windows by user.
type Window struct {
	decay timeslot.Decay
	ref   time.Time
	ring  []*Post // ring[head] is the oldest of the n resident posts
	head  int
	n     int
}

// NewWindow creates a window holding at most capacity messages (minimum 1).
func NewWindow(capacity int, decay timeslot.Decay) *Window {
	return &Window{decay: decay, ring: make([]*Post, max(capacity, 1))}
}

// Len returns the number of resident messages.
func (w *Window) Len() int { return w.n }

// Ref returns the reference time (zero before the first push).
func (w *Window) Ref() time.Time { return w.ref }

// At returns the i-th resident post, oldest first; 0 ≤ i < Len.
func (w *Window) At(i int) *Post { return w.ring[w.slot(i)] }

// slot is the ring index of the i-th resident message.
func (w *Window) slot(i int) int {
	if i += w.head; i >= len(w.ring) {
		i -= len(w.ring)
	}
	return i
}

// Push inserts a post, evicting the oldest resident post when the window is
// full, and returns the evicted post (nil when none was).
func (w *Window) Push(p *Post) (evicted *Post) {
	if w.n == 0 || p.Time.After(w.ref) {
		w.ref = p.Time
	}
	if w.n < len(w.ring) {
		w.ring[w.slot(w.n)] = p
		w.n++
		return nil
	}
	evicted = w.ring[w.head]
	w.ring[w.head] = p
	w.head = w.slot(1)
	return evicted
}

// mergeOnStack is the largest window Aggregate merges in stack space; a
// larger one allocates its merge state.
const mergeOnStack = 64

// Aggregate returns the window's decayed term vector at the reference time,
// Σ WeightAt(Ref − m.Time)·m.Vec over the resident messages, built in dst's
// storage, and the factor that takes it to query time q, which is above 1 for
// a q before the reference. Each term's weight is summed oldest message first.
//
// The message vectors are sorted already, so the sum is a W-way merge, not a
// sort: a min-heap holds each message's next term keyed by term ID and then
// by the message's position, oldest first, so the terms of one ID come out
// oldest message first and are added in that order — the order a stable sort
// of every weighted term would add them in.
func (w *Window) Aggregate(dst textproc.SparseVector, q time.Time) (textproc.SparseVector, float64) {
	var (
		keysOn   [mergeOnStack]uint64
		restOn   [mergeOnStack]textproc.SparseVector
		weightOn [mergeOnStack]float64
	)
	keys, rest, weight := keysOn[:0], restOn[:], weightOn[:]
	if w.n > mergeOnStack {
		keys, rest, weight = make([]uint64, 0, w.n), make([]textproc.SparseVector, w.n), make([]float64, w.n)
	}
	for i := range w.n {
		m := w.At(i)
		rest[i], weight[i] = m.Vec, w.decay.WeightAt(w.ref.Sub(m.Time))
		if len(m.Vec) > 0 {
			keys = append(keys, uint64(m.Vec[0].ID)<<32|uint64(i))
		}
	}
	slices.Sort(keys) // a sorted slice is a heap
	dst = dst[:0]
	for len(keys) > 0 {
		id, i := textproc.TermID(keys[0]>>32), uint32(keys[0])
		x := float64(rest[i][0].W * weight[i])
		if n := len(dst); n > 0 && dst[n-1].ID == id {
			dst[n-1].W += x
		} else {
			dst = append(dst, textproc.Term{ID: id, W: x})
		}
		if rest[i] = rest[i][1:]; len(rest[i]) > 0 {
			keys[0] = uint64(rest[i][0].ID)<<32 | uint64(i)
		} else {
			keys[0] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}
		siftDown(keys)
	}
	return dst, w.decay.Between(w.ref, q)
}

// siftDown restores the min-heap h after its root was replaced.
func siftDown(h []uint64) {
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}
