package feed

import (
	"time"

	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// Window is a per-user sliding feed window: a ring of the most recent Cap
// messages and a reference time, the latest post time pushed.
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
	ring  []Message // ring[head] is the oldest of the n resident messages
	head  int
	n     int
}

// NewWindow creates a window holding at most capacity messages (minimum 1).
func NewWindow(capacity int, decay timeslot.Decay) *Window {
	return &Window{decay: decay, ring: make([]Message, max(capacity, 1))}
}

// Len returns the number of resident messages.
func (w *Window) Len() int { return w.n }

// Ref returns the reference time (zero before the first push).
func (w *Window) Ref() time.Time { return w.ref }

// At returns the i-th resident message, oldest first; 0 ≤ i < Len.
func (w *Window) At(i int) Message { return w.ring[w.slot(i)] }

// slot is the ring index of the i-th resident message.
func (w *Window) slot(i int) int {
	if i += w.head; i >= len(w.ring) {
		i -= len(w.ring)
	}
	return i
}

// Push inserts a message, evicting the oldest resident message when the
// window is full, and returns the evicted message (valid when ok is true).
func (w *Window) Push(m Message) (evicted Message, ok bool) {
	if w.n == 0 || m.Time.After(w.ref) {
		w.ref = m.Time
	}
	if w.n < len(w.ring) {
		w.ring[w.slot(w.n)] = m
		w.n++
		return Message{}, false
	}
	evicted = w.ring[w.head]
	w.ring[w.head] = m
	w.head = w.slot(1)
	return evicted, true
}

// Aggregate returns the window's decayed term vector at the reference time,
// Σ WeightAt(Ref − m.Time)·m.Vec over the resident messages, built in dst's
// storage, and the factor that takes it to query time q, which is above 1 for
// a q before the reference. Each term's weight is summed oldest message first.
func (w *Window) Aggregate(dst textproc.SparseVector, q time.Time) (textproc.SparseVector, float64) {
	dst = dst[:0]
	for i := range w.n {
		m := w.At(i)
		s := w.decay.WeightAt(w.ref.Sub(m.Time))
		for _, t := range m.Vec {
			dst = append(dst, textproc.Term{ID: t.ID, W: t.W * s})
		}
	}
	return textproc.NewVector(dst), w.decay.Between(w.ref, q)
}
