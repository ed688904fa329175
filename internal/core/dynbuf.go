package core

import (
	"math"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/index"
)

// bufEntry is one buffered ad with its stored (scale-divided) text
// relevance coefficient.
type bufEntry struct {
	ad adstore.AdID
	v  float64
}

// dropBelow is the magnitude under which a touched coefficient counts as
// having returned to zero and leaves the buffer.
const dropBelow = 1e-12

// dynBuf is one user's incremental candidate buffer: for every ad that
// shares at least one term with a message it reflects, the exact text
// relevance coefficient in the reference space of ref.
//
// Entries are kept in one slice sorted by ad ID — 16 bytes an entry, read
// sequentially by a query and rewritten by one merge per catch-up (delta
// lists arrive in the same order). Values are stored divided by scale, so
// aging the whole buffer when the reference time advances is one O(1)
// multiplication instead of a sweep.
//
// The buffer is lazy (DESIGN.md §3.1 item 3): a delivery only records what
// the buffer now owes, and CAP.catchUp settles it when something reads. What
// the buffer reflects is the first applied resident messages of the user's
// window plus the messages in gone; the window's later entries are the
// arrivals it has yet to add. applied == 0 is the cold state — the buffer
// describes nothing in the window, so it holds nothing: no entries, no view
// unless the window is empty too, no pending lists and no message-cache
// reference — and the next read rebuilds it from the window aggregate.
type dynBuf struct {
	e     []bufEntry // ascending by ad
	scale float64
	ops   int // deliveries merged since the last exact rebuild

	applied int
	ref     time.Time      // the window reference e and scale are relative to
	gone    []feed.Message // applied messages evicted since: owed a subtraction
	// fix lists the ads registered while the buffer was behind; the catch-up
	// ends by setting each to its exact value, because neither what the buffer
	// holds nor what the pass adds accounts for them consistently.
	fix []adstore.AdID

	// view is the user's materialised top-k (view.go); nil until the user's
	// first query, and again after anything that invalidates it.
	view *topView
}

func newDynBuf() *dynBuf { return &dynBuf{scale: 1} }

// find returns the position of ad in the buffer, or the position it would
// be inserted at and false.
func (b *dynBuf) find(ad adstore.AdID) (int, bool) {
	lo, hi := 0, len(b.e)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.e[mid].ad < ad {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(b.e) && b.e[lo].ad == ad
}

// get returns the stored coefficient of ad (0 when not buffered).
func (b *dynBuf) get(ad adstore.AdID) float64 {
	if i, ok := b.find(ad); ok {
		return b.e[i].v
	}
	return 0
}

// set makes ad's coefficient refCoeff (in reference space), dropping an entry
// set to (numerical) zero. Deliveries go through merge; this is the single-ad
// form ad registration uses.
func (b *dynBuf) set(ad adstore.AdID, refCoeff float64) {
	i, ok := b.find(ad)
	switch zero := math.Abs(refCoeff) < dropBelow; {
	case ok && zero:
		b.e = append(b.e[:i], b.e[i+1:]...)
	case ok:
		b.e[i].v = refCoeff / b.scale
	case !zero:
		b.e = append(b.e, bufEntry{})
		copy(b.e[i+1:], b.e[i:])
		b.e[i] = bufEntry{ad: ad, v: refCoeff / b.scale}
	}
}

// remove drops one ad from the buffer (no-op when absent).
func (b *dynBuf) remove(ad adstore.AdID) {
	if i, ok := b.find(ad); ok {
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
			b.e[i].v *= b.scale
		}
	} else {
		b.e = b.e[:0]
	}
	b.scale = 1
	return true
}

// note puts ad on the view's noted list for the next query to score exactly;
// a list already at viewMaxNoted drops the view instead, which it reports as
// false. The caller has checked that there is a view. The list starts at the
// size a delivered-to view's list reaches anyway (a message notes up to ~100
// ads), not grown to it eight appends at a time.
func (b *dynBuf) note(ad adstore.AdID) bool {
	if len(b.view.noted) == viewMaxNoted {
		b.view = nil
		return false
	}
	if b.view.noted == nil {
		b.view.noted = make([]adstore.AdID, 0, viewMaxNoted/2)
	}
	b.view.noted = append(b.view.noted, ad)
	return true
}

// weighted is one message's delta list with the stored-space factor (already
// divided by scale) its coefficients enter the buffer at: negative for an
// evicted message. merge consumes d from the front, keeping its first ad in
// head, where the scan for the next ad to write finds it without a load
// through d.
type weighted struct {
	d    []index.Delta
	c    float64
	head adstore.AdID
}

// merge applies any number of delta lists in one pass over the buffer: every
// ad of a list gains c·Coeff, list after list in the order given. A catch-up
// passes the evicted messages first and the arrivals from lists[arrivals:]
// on. Every list is ascending by ad, as index.Inverted.DeltaList returns
// them. A touched entry that ends at (numerical) zero is dropped. Every ad of
// an arrival whose stored value ends at or above noteAt goes on the view's
// noted list: how the view learns which raised ads could now beat its bound
// (noteAt is +Inf when there is no view); one more than viewMaxNoted of them
// drops the view.
//
// lists is consumed. scratch is the caller's reusable merge space; it is
// returned, possibly grown, for the next call.
func (b *dynBuf) merge(scratch []bufEntry, lists []weighted, arrivals int, noteAt float64) []bufEntry {
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
			t.head = t.d[0].Ad
		}
	}
	src, out := b.e, scratch[:0]
	i := 0
	for len(lists) > 0 {
		ad := lists[0].head
		for l := 1; l < len(lists); l++ {
			ad = min(ad, lists[l].head)
		}
		start := i
		for i < len(src) && src[i].ad < ad {
			i++
		}
		out = append(out, src[start:i]...)
		v := 0.0
		if i < len(src) && src[i].ad == ad {
			v = src[i].v
			i++
		}
		raised := false
		for l := 0; l < len(lists); l++ {
			t := &lists[l]
			if t.head != ad {
				continue
			}
			v += t.c * t.d[0].Coeff
			raised = raised || l >= arrivals
			if t.d = t.d[1:]; len(t.d) == 0 {
				drop(l)
				l--
			} else {
				t.head = t.d[0].Ad
			}
		}
		if math.Abs(v*b.scale) < dropBelow {
			continue
		}
		out = append(out, bufEntry{ad: ad, v: v})
		if raised && v >= noteAt && !b.note(ad) {
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
// doubling would keep up to twice that.
func (b *dynBuf) fill(n int) {
	if cap(b.e) < n {
		b.e = make([]bufEntry, n, n+n/8+8)
	}
	b.e = b.e[:n]
}
