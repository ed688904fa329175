package core

import (
	"math"
	"slices"
	"time"

	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/index"
)

// dropBelow is the magnitude under which a touched coefficient counts as
// having returned to zero and leaves the buffer.
const dropBelow = 1e-12

// dynBuf is one user's incremental candidate buffer: for every ad that
// shares at least one term with a message it reflects and whose reach holds
// the user's cell, the exact text relevance coefficient in the reference
// space of ref.
//
// Entries are kept in one slice sorted by ad slot — index.Deltas, 12 bytes an
// entry, read sequentially by a query and rewritten by one merge per catch-up
// (delta lists arrive in the same order). The slot is storage order only:
// ranking orders ties by ad ID. Values are stored divided by scale, so aging
// the whole buffer when the reference time advances is one O(1)
// multiplication instead of a sweep.
//
// The buffer is lazy (DESIGN.md §3.1 item 3): a delivery only records what
// the buffer now owes, and CAP.catchUp settles it — and any ad registered or
// withdrawn since (AdIndex's churn record) — when something reads. What
// the buffer reflects is the first applied resident messages of the user's
// window plus the messages in gone; the window's later entries are the
// arrivals it has yet to add.
//
// A cold user has no buffer (userState.buf is nil): none is made until the
// user is first read (userState.read), and one whose applied messages have
// all left the window is dropped (CAP.chill), so a user nobody reads costs no
// buffer. The next read makes one and rebuilds it from the window aggregate.
// The one buffer with applied == 0 is one read while its window was empty: it
// holds no entries, no pending lists and no reference on a post, only perhaps
// a view, and the next delivery drops it.
type dynBuf struct {
	e     []index.Delta // ascending by slot; Coeff is the stored value
	scale float64
	ops   int // deliveries merged since the last exact rebuild

	applied int
	cell    geo.Reach    // the user's cell e is scoped to
	ref     time.Time    // the window reference e and scale are relative to
	gone    []*feed.Post // applied posts evicted since: owed a subtraction
	churned uint64       // the AdIndex churn count e and view account for

	// view is the user's materialised top-k (view.go); nil until the user's
	// first query, and again after anything that invalidates it.
	view *topView
}

func newDynBuf() *dynBuf { return &dynBuf{scale: 1} }

// read returns a user's candidate buffer for a read, made at the first.
func (st *userState) read() *dynBuf {
	if st.buf == nil {
		st.buf = newDynBuf()
	}
	return st.buf
}

// find returns the position of slot in the buffer, or the position it would
// be inserted at and false.
func (b *dynBuf) find(slot uint32) (int, bool) { return findDelta(b.e, slot) }

// findDelta returns the position of slot in a list ascending by slot — a
// buffer or a delta list — or the position it would be inserted at and false.
//
// It is the one search into a slot-sorted list, and it branches on no probe:
// which half a probe keeps is a comparison the predictor cannot learn, so a
// branching search mispredicts about every other step, and a view refresh
// runs one search per tracked and noted ad. The sign of the probe's slot
// minus the sought one, as a mask, moves base instead; the difference is
// taken in int64, so it cannot overflow near math.MaxUint32. The lower bound
// lies in [base, base+n] throughout, and the last step settles between base
// and base+1.
func findDelta(list []index.Delta, slot uint32) (int, bool) {
	n := len(list)
	if n == 0 {
		return 0, false
	}
	base := 0
	for n > 1 {
		half := n >> 1
		base += half & int((int64(list[base+half].Slot)-int64(slot))>>63)
		n -= half
	}
	base -= int((int64(list[base].Slot) - int64(slot)) >> 63)
	return base, base < len(list) && list[base].Slot == slot
}

// get returns the stored coefficient of the ad in slot (0 when not buffered).
func (b *dynBuf) get(slot uint32) float64 {
	if i, ok := b.find(slot); ok {
		return b.e[i].Coeff.Float64()
	}
	return 0
}

// set makes the coefficient of the ad in slot refCoeff (in reference space),
// dropping an entry set to (numerical) zero. Deliveries go through merge;
// this is the single-ad form settling ad churn uses.
func (b *dynBuf) set(slot uint32, refCoeff float64) {
	i, ok := b.find(slot)
	switch zero := math.Abs(refCoeff) < dropBelow; {
	case ok && zero:
		b.e = append(b.e[:i], b.e[i+1:]...)
	case ok:
		b.e[i].Coeff = index.Pack(refCoeff / b.scale)
	case !zero:
		b.e = slices.Insert(b.e, i, index.Delta{Slot: slot, Coeff: index.Pack(refCoeff / b.scale)})
	}
}

// remove drops one ad from the buffer (no-op when absent).
func (b *dynBuf) remove(slot uint32) {
	if i, ok := b.find(slot); ok {
		b.e = append(b.e[:i], b.e[i+1:]...)
	}
}

// age multiplies every buffered coefficient by factor (usually ≤ 1) in
// O(1), and renormalizes the stored values when the scalar risks underflow;
// it reports whether it did, because rewriting the values can move them by
// a rounding step. A long idle gap can make factor — and therefore scale —
// underflow to exactly 0 (exp(-x) flushes to zero near x ≈ 745); leaving a
// zero scale in place would poison the buffer on the next add (refCoeff/0
// → ±Inf), so that case drops every entry instead: contributions a zero
// factor has aged are exactly zero.
func (b *dynBuf) age(factor float64) (renormalized bool) {
	b.scale *= factor
	if b.scale >= 1e-150 {
		return false
	}
	if b.scale > 0 {
		for i := range b.e {
			b.e[i].Coeff = index.Pack(b.e[i].Coeff.Float64() * b.scale)
		}
	} else {
		b.e = b.e[:0]
	}
	b.scale = 1
	return true
}

// note puts the ad in slot on the view's noted list for the next query to
// score exactly; a list already at viewMaxNoted drops the view instead, which
// it reports as false. The caller has checked that there is a view. The list
// starts at a quarter of viewMaxNoted rather than growing append by append:
// between two queries a view's list passes 16 ads about every other time, 32
// one time in 17 and 64 almost never, and a view keeps its list's capacity
// for life, so room for 128 would idle on nearly every view.
func (b *dynBuf) note(slot uint32) bool {
	if len(b.view.noted) == viewMaxNoted {
		b.view = nil
		return false
	}
	if b.view.noted == nil {
		b.view.noted = make([]uint32, 0, viewMaxNoted/4)
	}
	b.view.noted = append(b.view.noted, slot)
	return true
}

// weighted is one message's delta list with the stored-space factor (already
// divided by scale) its coefficients enter the buffer at: negative for an
// evicted message. merge consumes d from the front, keeping its first slot
// in head, where the scan for the next slot to write finds it without a load
// through d.
type weighted struct {
	d    []index.Delta
	c    float64
	head uint32
}

// scope appends to dst the entries of list whose ad's reach, read from the
// table indexed by slot, holds cell. About a third are kept, in no order a
// branch predictor could learn, so every entry is written and only a kept one
// moves the end on, by a conditional move the compiler makes of the
// increment: no branch.
func scope(dst []index.Delta, list []index.Delta, reach []geo.Reach, cell geo.Reach) []index.Delta {
	n := len(dst)
	dst = slices.Grow(dst, len(list))[:n+len(list)]
	for _, d := range list {
		dst[n] = d
		if reach[d.Slot].Holds(cell) {
			n++
		}
	}
	return dst[:n]
}

// merge applies any number of delta lists in one pass over the buffer: every
// ad of a list gains c·Coeff, list after list in the order given. A catch-up
// passes the evicted messages first and the arrivals from lists[arrivals:]
// on. Every list is ascending by slot, as index.Inverted.DeltaList returns
// them. A touched entry that ends at (numerical) zero is dropped. Every ad of
// an arrival whose stored value ends at or above noteAt goes on the view's
// noted list: how the view learns which raised ads could now beat its bound
// (noteAt is +Inf when there is no view); one more than viewMaxNoted of them
// drops the view.
//
// lists is consumed. scratch is the caller's reusable merge space; it is
// returned, possibly grown, for the next call.
func (b *dynBuf) merge(scratch []index.Delta, lists []weighted, arrivals int, noteAt float64) []index.Delta {
	// Only lists with something left to apply stay in lists, in their order.
	drop := func(l int) {
		lists = append(lists[:l], lists[l+1:]...)
		if l < arrivals {
			arrivals--
		}
	}
	for l := len(lists) - 1; l >= 0; l-- {
		if t := &lists[l]; len(t.d) == 0 {
			drop(l)
		} else {
			t.head = t.d[0].Slot
		}
	}
	src, out := b.e, scratch[:0]
	i := 0
	for len(lists) > 0 {
		slot := lists[0].head
		for l := 1; l < len(lists); l++ {
			slot = min(slot, lists[l].head)
		}
		// Untouched entries are copied as the scan passes them: a run is a
		// few entries, too short to pay for a copy call of its own.
		for i < len(src) && src[i].Slot < slot {
			out = append(out, src[i])
			i++
		}
		v := 0.0
		if i < len(src) && src[i].Slot == slot {
			v = src[i].Coeff.Float64()
			i++
		}
		raised := false
		for l := 0; l < len(lists); l++ {
			t := &lists[l]
			if t.head != slot {
				continue
			}
			v += t.c * t.d[0].Coeff.Float64()
			raised = raised || l >= arrivals
			if t.d = t.d[1:]; len(t.d) == 0 {
				drop(l)
				l--
			} else {
				t.head = t.d[0].Slot
			}
		}
		if math.Abs(v*b.scale) < dropBelow {
			continue
		}
		out = append(out, index.Delta{Slot: slot, Coeff: index.Pack(v)})
		if raised && v >= noteAt && !b.note(slot) {
			noteAt = math.Inf(1)
		}
	}
	out = append(out, src[i:]...)
	b.fill(len(out))
	copy(b.e, out)
	return out
}

// fill sizes e for n entries, with an eighth of headroom when it has to
// grow: a buffer hovers around one size once its window is full, and append's
// doubling would keep up to twice that. Nothing shrinks a buffer: a shrink
// costs an allocation, and shrinking at four fifths of the capacity cost
// fanout_stream five to six percent more allocations for the bytes it
// returned (DESIGN.md §3.1 item 3).
func (b *dynBuf) fill(n int) {
	if cap(b.e) < n {
		b.e = make([]index.Delta, n, n+n/8+8)
	}
	b.e = b.e[:n]
}
