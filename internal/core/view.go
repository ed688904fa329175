package core

import (
	"cmp"
	"math"
	"slices"
	"time"

	"caar/internal/adstore"
	"caar/internal/timeslot"
)

// viewSlack is how many ads a view tracks per ad of the largest answer asked
// of it. The view answers while the k-th served score stays strictly above
// the best score an untracked ad could have, and that bound starts at the
// score of the weakest tracked ad: with 4k tracked it starts 3k ranks below
// the answer, so decay and the occasional exhausted budget rarely close the
// gap, while a query still re-scores tens of ads instead of the whole buffer.
//
// The rest bound what a view holds between queries: a k whose 4k exceeds
// viewMaxTracked is ranked without a view; tracked has room for viewJoinRoom
// joiners before a refresh cuts back mid-way; one noted ad beyond
// viewMaxNoted drops the view — the query is better off re-ranking.
const (
	viewSlack      = 4
	viewMaxTracked = 256
	viewJoinRoom   = 8
	viewMaxNoted   = 256
)

// viewEntry is one tracked ad: its slot, where the buffer keeps its value,
// and what sorting needs. static depends on the user's location only, which
// is fixed for the life of a view; the text and geo parts of the k ads an
// answer emits are recomputed then.
type viewEntry struct {
	a      *adstore.Ad
	slot   uint32
	static float64 // β·geo + γ·bid
	score  float64 // α·text + static at the last query
}

// topView is one user's materialised top-k (DESIGN.md §3.1), created by the
// first TopAds for the user — a feed render or a continuous refresh alike.
//
// Invariant: every ad that is geo- and slot-eligible for the user and is
// NOT tracked scores at most bound at any query time t with asOf ≤ t and
// t not before the window reference. Budget is ignored by the invariant
// and applied when the answer is emitted, so spend and pacing need no
// invalidation. The invariant survives deliveries because decay and
// eviction only lower an untracked score, and an ad the new messages raise
// to where it could exceed bound is put on noted — by the catch-up that
// merges them, which every query runs first — and scored exactly by that
// query. Everything else that could raise an untracked score or change
// eligibility sets dynBuf.view to nil (check-in, exact rebuild,
// renormalization, a full noted list, a buffer freed a window behind) or
// fails the guard in TopAds (another slot, a query time the bound does not
// cover). Ad churn is not on that
// list: the catch-up that settles a registered ad notes it like a raised
// one, and an unregistered ad takes along only the views that track it.
type topView struct {
	size    int // tracked ads kept by a cut: viewSlack × the k it was made for
	slot    timeslot.Slot
	asOf    time.Time
	bound   float64     // -Inf: every eligible ad is tracked
	tracked []viewEntry // capacity size + viewJoinRoom, never more
	noted   []uint32    // slots, at most viewMaxNoted
}

// fromView answers a query from the user's view — re-scoring only the
// tracked ads and the ads the catch-up noted — if the view covers the query
// and can prove nothing outside it belongs in the top k, whatever k built it.
func (e *CAP) fromView(dst []Scored, st *userState, buf *dynBuf, mult, winFactor float64, k int, sl timeslot.Slot, t, span time.Time) ([]Scored, bool) {
	v := buf.view
	// A query before the window reference scales text UP (winFactor > 1),
	// which the noted test — made in reference space — does not cover; so
	// does a query before the time the bound was taken at.
	if v == nil || v.slot != sl || winFactor > 1 || t.Before(v.asOf) {
		return nil, false
	}
	in, retrieved := len(v.tracked)+len(v.noted), time.Now()
	e.refreshView(v, buf, st, mult)
	scored := time.Now()
	out, ok := e.emit(dst, v, st, buf, mult, k, t)
	if ok {
		e.viewAnswers.Add(1)
		e.last.Path = "view"
		e.stageSpan(StageRetrieve, span, retrieved, in, in)
		e.stageSpan(StageScore, retrieved, scored, in, len(v.tracked))
		e.stageDone(StageTopK, scored, len(v.tracked), len(out)-len(dst))
	}
	return out, ok
}

// buildView ranks the user's whole candidate set with a collector that
// ignores budget and makes the result the tracked set of buf.view: viewSlack
// ads per ad of k, or of the largest k the view it replaces was built for —
// a view only grows. The old view's slices are reused unless it does, and
// the ranking is the engine's collector's.
func (e *CAP) buildView(buf *dynBuf, st *userState, mult float64, k int, sl timeslot.Slot, t time.Time) (examined, offered int) {
	v := buf.view
	if size := viewSlack * k; v == nil || v.size < size {
		v = &topView{size: size, tracked: make([]viewEntry, 0, size+viewJoinRoom)}
	}
	c := &e.coll
	c.Reset(v.size)
	examined, offered = e.rank(c, st, buf, mult, sl, t, false)
	items := c.Sorted()

	v.slot, v.asOf = sl, t
	v.noted, v.tracked = v.noted[:0], v.tracked[:0]
	for _, it := range items {
		a := e.ads[it.Slot]
		v.tracked = append(v.tracked, viewEntry{a: a, slot: it.Slot, static: e.scoring.staticScore(a, st.loc, st.hasLoc), score: it.Score})
	}
	// Whatever the collector turned away or pushed out scored no higher
	// than the weakest ad it kept; a collector that never filled saw every
	// eligible ad.
	v.bound = math.Inf(-1)
	if c.Len() == c.K() {
		v.bound = items[len(items)-1].Score
	}
	buf.view = v
	return examined, offered
}

// refreshView brings the view up to the present: every tracked ad is
// re-scored from the buffer, noted ads that now exceed the bound join the
// tracked set (forcing the cut early when the join room is full, instead of
// a larger slice), and the set is sorted and cut back to its size — an ad cut
// is untracked from here on, so the bound rises to cover its score.
func (e *CAP) refreshView(v *topView, buf *dynBuf, st *userState, mult float64) {
	for i := range v.tracked {
		en := &v.tracked[i]
		en.score = e.scoring.AlphaText*(buf.get(en.slot)*mult) + en.static
	}
	for _, slot := range v.noted {
		if v.tracks(slot) {
			continue
		}
		a := e.ads[slot]
		if a == nil {
			continue
		}
		geoScore, ok := a.Place(st.loc, st.hasLoc, v.slot)
		if !ok {
			continue
		}
		static := e.scoring.static(a, geoScore)
		if sc := e.scoring.AlphaText*(buf.get(slot)*mult) + static; sc > v.bound {
			if len(v.tracked) == cap(v.tracked) {
				v.cut()
			}
			v.tracked = append(v.tracked, viewEntry{a: a, slot: slot, static: static, score: sc})
		}
	}
	v.noted = v.noted[:0]
	v.cut()
}

// tracks reports whether the ad in slot is in the tracked set.
func (v *topView) tracks(slot uint32) bool {
	return slices.ContainsFunc(v.tracked, func(en viewEntry) bool { return en.slot == slot })
}

// cut sorts the tracked ads into the collector's order — score descending,
// ad ID ascending on a tie — and keeps the best size of them. The sort is an
// insertion pass: between queries the set is nearly in order already (the
// scores move a little, and a few joiners wait at the end), so it moves
// little, and the order is total, so the result is the one any sort gives.
func (v *topView) cut() {
	t := v.tracked
	for i := 1; i < len(t); i++ {
		en, j := t[i], i
		for ; j > 0; j-- {
			c := cmp.Compare(t[j-1].score, en.score)
			if c > 0 || c == 0 && t[j-1].a.ID < en.a.ID {
				break
			}
			t[j] = t[j-1]
		}
		t[j] = en
	}
	if len(t) > v.size {
		v.bound = max(v.bound, t[v.size].score)
		v.tracked = t[:v.size]
	}
}

// emit reads the answer off a refreshed view, appended to dst: the first k
// tracked ads with budget left at t. It is THE answer only if no untracked ad
// can belong in it: the k-th score must be strictly above the bound, because
// an untracked ad scoring exactly the bound could still win the ID tie-break.
func (e *CAP) emit(dst []Scored, v *topView, st *userState, buf *dynBuf, mult float64, k int, t time.Time) ([]Scored, bool) {
	out := dst
	for i := range v.tracked {
		en := &v.tracked[i]
		if en.a.Campaign != "" && !e.store.HasBudget(en.a.ID, t) {
			continue
		}
		out = append(out, e.decompose(en.a, en.score, buf.get(en.slot)*mult, st))
		if len(out)-len(dst) == k {
			return out, en.score > v.bound
		}
	}
	return out, math.IsInf(v.bound, -1)
}

// noteAt converts the view's bound into the stored-space threshold merge
// compares a raised coefficient with: α·(v·scale) + maxStatic ≥ bound, the
// static part taken at its ceiling (full proximity, bid 1) so the test needs
// neither the ad record nor a distance. +Inf — note nothing — without a view.
func (e *CAP) noteAt(buf *dynBuf) float64 {
	if buf.view == nil || e.scoring.AlphaText == 0 {
		return math.Inf(1)
	}
	return (buf.view.bound - e.scoring.maxStatic()) / (e.scoring.AlphaText * buf.scale)
}

// TopAdsPaths counts TopAds calls by answer path. It reads atomics, so it
// needs no engine lock.
func (e *CAP) TopAdsPaths() (view, rerank uint64) { return e.viewAnswers.Load(), e.reranks.Load() }
