// Package ring is the bounded lock-free multi-producer single-consumer
// queue behind both hand-offs that must never block a request: the ingest
// accept path (a full ring becomes a 429) and the hot-key record path (a
// full ring becomes a counted drop).
package ring

import "sync/atomic"

// Ring is the bounded-MPMC design with per-slot sequence numbers, consumed
// from a single goroutine. Producers never block and never spin on a full
// ring: Push fails fast, so overload surfaces at the caller instead of as
// goroutines piling up — and caarlint's readpathlock stays green because
// the producer side takes no locks.
type Ring[T any] struct {
	slots []slot[T]
	mask  uint64
	head  atomic.Uint64 // next enqueue position (producers, CAS)
	tail  atomic.Uint64 // next dequeue position (written by the single consumer, read by Depth)
}

type slot[T any] struct {
	// seq == pos: slot free for the producer claiming pos.
	// seq == pos+1: slot filled, ready for the consumer at pos.
	seq atomic.Uint64
	v   T
}

// New rounds capacity up to a power of two.
func New[T any](capacity int) *Ring[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{slots: make([]slot[T], n), mask: uint64(n - 1)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Push enqueues v, returning false when the ring is full.
func (r *Ring[T]) Push(v T) bool {
	pos := r.head.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if r.head.CompareAndSwap(pos, pos+1) {
				s.v = v
				s.seq.Store(pos + 1)
				return true
			}
			pos = r.head.Load()
		case d < 0:
			// The slot still holds an entry from one lap ago: full.
			return false
		default:
			// Another producer claimed pos; reload and retry.
			pos = r.head.Load()
		}
	}
}

// Pop dequeues the oldest entry. Single-consumer: callers run it from one
// goroutine or serialize it behind a mutex.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	tail := r.tail.Load()
	s := &r.slots[tail&r.mask]
	if s.seq.Load() != tail+1 {
		return zero, false
	}
	v := s.v
	s.v = zero // release whatever the entry references for GC
	// tail moves before the slot is handed back: a producer refilling the
	// slot first would let Depth read one past capacity.
	r.tail.Store(tail + 1)
	s.seq.Store(tail + uint64(len(r.slots)))
	return v, true
}

// Depth approximates the number of queued entries; safe from any goroutine.
func (r *Ring[T]) Depth() int {
	h, t := r.head.Load(), r.tail.Load()
	if h < t {
		return 0
	}
	return int(h - t)
}
