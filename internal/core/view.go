package core

import (
	"cmp"
	"math"
	"slices"
	"time"

	"caar/internal/adstore"
	"caar/internal/timeslot"
	"caar/internal/topk"
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
	viewJoinRoom   = 16
	viewMaxNoted   = 256
)

// viewEntry is one tracked ad: what sorting needs. static depends on the
// user's location only, which is fixed for the life of a view; the text and
// geo parts of the k ads an answer emits are recomputed then.
type viewEntry struct {
	a      *adstore.Ad
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
// list: a registered ad is noted like a raised one, and an unregistered ad
// takes along only the views that track it.
type topView struct {
	size    int // tracked ads kept by a cut: viewSlack × the k it was made for
	slot    timeslot.Slot
	asOf    time.Time
	bound   float64        // -Inf: every eligible ad is tracked
	tracked []viewEntry    // capacity size + viewJoinRoom, never more
	noted   []adstore.AdID // at most viewMaxNoted
}

// fromView answers a query from the user's view — re-scoring only the
// tracked ads and the ads the catch-up noted — if the view covers the query
// and can prove nothing outside it belongs in the top k, whatever k built it.
func (e *CAP) fromView(st *userState, buf *dynBuf, mult, winFactor float64, k int, sl timeslot.Slot, t, span time.Time) ([]Scored, bool) {
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
	out, ok := e.emit(v, st, buf, mult, k, t)
	if ok {
		e.viewAnswers, e.last.Path = e.viewAnswers+1, "view"
		e.stageSpan(StageRetrieve, span, retrieved, in, in)
		e.stageSpan(StageScore, retrieved, scored, in, len(v.tracked))
		e.stageDone(StageTopK, scored, len(v.tracked), len(out))
	}
	return out, ok
}

// buildView ranks the user's whole candidate set with a collector that
// ignores budget and makes the result the tracked set of buf.view: viewSlack
// ads per ad of k, or of the largest k the view it replaces was built for —
// a view only grows. The old view's slices are reused unless it does.
func (e *CAP) buildView(buf *dynBuf, st *userState, mult float64, k int, sl timeslot.Slot, t time.Time) (examined, offered int) {
	v := buf.view
	if size := viewSlack * k; v == nil || v.size < size {
		v = &topView{size: size, tracked: make([]viewEntry, 0, size+viewJoinRoom)}
	}
	c := topk.NewCollector(v.size)
	examined, offered = e.rank(c, st, buf, mult, sl, t, false)
	items := c.Items()

	v.slot, v.asOf = sl, t
	v.noted, v.tracked = v.noted[:0], v.tracked[:0]
	for _, it := range items {
		a := e.ad(adstore.AdID(it.ID))
		v.tracked = append(v.tracked, viewEntry{a: a, static: e.scoring.staticScore(a, st.loc, st.hasLoc), score: it.Score})
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
		en.score = e.scoring.AlphaText*(buf.get(en.a.ID)*mult) + en.static
	}
	for _, id := range v.noted {
		if v.tracks(id) {
			continue
		}
		a := e.ad(id)
		if a == nil || !a.Eligible(st.loc, st.hasLoc, v.slot) {
			continue
		}
		static := e.scoring.staticScore(a, st.loc, st.hasLoc)
		if sc := e.scoring.AlphaText*(buf.get(id)*mult) + static; sc > v.bound {
			if len(v.tracked) == cap(v.tracked) {
				v.cut()
			}
			v.tracked = append(v.tracked, viewEntry{a: a, static: static, score: sc})
		}
	}
	v.noted = v.noted[:0]
	v.cut()
}

// tracks reports whether ad is in the tracked set.
func (v *topView) tracks(ad adstore.AdID) bool {
	return slices.ContainsFunc(v.tracked, func(en viewEntry) bool { return en.a.ID == ad })
}

// cut sorts the tracked ads into the collector's order — score descending,
// ad ID ascending on a tie — and keeps the best size of them.
func (v *topView) cut() {
	slices.SortFunc(v.tracked, func(x, y viewEntry) int {
		if c := cmp.Compare(y.score, x.score); c != 0 {
			return c
		}
		return cmp.Compare(x.a.ID, y.a.ID)
	})
	if len(v.tracked) > v.size {
		v.bound = max(v.bound, v.tracked[v.size].score)
		v.tracked = v.tracked[:v.size]
	}
}

// emit reads the answer off a refreshed view: the first k tracked ads with
// budget left at t. It is THE answer only if no untracked ad can belong in
// it: the k-th score must be strictly above the bound, because an untracked
// ad scoring exactly the bound could still win the ID tie-break.
func (e *CAP) emit(v *topView, st *userState, buf *dynBuf, mult float64, k int, t time.Time) ([]Scored, bool) {
	out := make([]Scored, 0, k)
	for i := range v.tracked {
		en := &v.tracked[i]
		if en.a.Campaign != "" && !e.store.HasBudget(en.a.ID, t) {
			continue
		}
		out = append(out, e.decompose(en.a, en.score, buf.get(en.a.ID)*mult, st))
		if len(out) == k {
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
	maxStatic := e.scoring.BetaGeo + e.scoring.GammaBid
	return (buf.view.bound - maxStatic) / (e.scoring.AlphaText * buf.scale)
}

// TopAdsPaths counts TopAds calls by answer path. Callers hold the engine's lock.
func (e *CAP) TopAdsPaths() (view, rerank uint64) { return e.viewAnswers, e.reranks }
