package core

import (
	"math"

	"caar/internal/adstore"
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
// shares at least one term with a window-resident message, the exact text
// relevance coefficient in the window's reference space.
//
// Entries are kept in one slice sorted by ad ID — 16 bytes an entry, read
// sequentially by a query and rewritten by one merge per delivery (delta
// lists arrive in the same order). Values are stored divided by scale, so
// aging the whole buffer when the window's reference time advances is one
// O(1) multiplication instead of a sweep.
type dynBuf struct {
	e     []bufEntry // ascending by ad
	scale float64
	ops   int

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

// add accumulates a ref-space contribution for one ad, dropping an entry
// that returns to (numerical) zero. Deliveries go through merge; this is
// the single-ad form ad registration uses.
func (b *dynBuf) add(ad adstore.AdID, refCoeff float64) {
	i, ok := b.find(ad)
	nv := refCoeff / b.scale
	if ok {
		nv += b.e[i].v
	}
	switch zero := math.Abs(nv*b.scale) < dropBelow; {
	case ok && zero:
		b.e = append(b.e[:i], b.e[i+1:]...)
	case ok:
		b.e[i].v = nv
	case !zero:
		b.e = append(b.e, bufEntry{})
		copy(b.e[i+1:], b.e[i:])
		b.e[i] = bufEntry{ad: ad, v: nv}
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
// false. The caller has checked that there is a view.
func (b *dynBuf) note(ad adstore.AdID) bool {
	if len(b.view.noted) == viewMaxNoted {
		b.view = nil
		return false
	}
	b.view.noted = append(b.view.noted, ad)
	return true
}

// merge applies two delta lists in one pass over the buffer: every ad of
// sub gains cs·Coeff and every ad of add gains ca·Coeff (cs and ca are
// stored-space factors, already divided by scale; a delivery passes the
// evicted message with a negative cs and the new message). Both lists are
// ascending by ad, as index.Inverted.DeltaList returns them. A touched
// entry that ends at (numerical) zero is dropped. Every ad of add whose
// stored value ends at or above noteAt goes on the view's noted list: how
// the view learns which raised ads could now beat its bound (noteAt is +Inf
// when there is no view); one more than viewMaxNoted of them drops the view.
//
// scratch is the caller's reusable merge space; it is returned, possibly
// grown, for the next call.
func (b *dynBuf) merge(scratch []bufEntry, sub []index.Delta, cs float64, add []index.Delta, ca float64, noteAt float64) []bufEntry {
	src, out := b.e, scratch[:0]
	i, j, k := 0, 0, 0
	for j < len(sub) || k < len(add) {
		var ad adstore.AdID
		switch {
		case k == len(add) || (j < len(sub) && sub[j].Ad < add[k].Ad):
			ad = sub[j].Ad
		default:
			ad = add[k].Ad
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
		if j < len(sub) && sub[j].Ad == ad {
			v += cs * sub[j].Coeff
			j++
		}
		raised := false
		if k < len(add) && add[k].Ad == ad {
			v += ca * add[k].Coeff
			k++
			raised = true
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

	if cap(b.e) < len(out) {
		// An eighth of headroom: a buffer hovers around one size once its
		// window is full, and append's doubling would keep up to twice that.
		b.e = make([]bufEntry, len(out), len(out)+len(out)/8+8)
	}
	b.e = b.e[:len(out)]
	copy(b.e, out)
	return out
}
