package core

import (
	"cmp"
	"math"
	"slices"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/timeslot"
	"caar/internal/topk"
)

// viewSlack is how many ads a view tracks per ad it serves. The view
// answers while the k-th served score stays strictly above the best score
// an untracked ad could have, and that bound starts at the score of the
// weakest tracked ad: with 4k tracked it starts 3k ranks below the answer,
// so decay and the occasional exhausted budget rarely close the gap, while
// a refresh still re-scores tens of ads instead of the whole buffer.
const viewSlack = 4

// viewEntry is one tracked ad. static and geo depend on the user's
// location only, which is fixed for the life of a view.
type viewEntry struct {
	a      *adstore.Ad
	static float64 // β·geo + γ·bid
	geo    float64 // the β·geo part, for the result's decomposition
	text   float64 // text relevance at the last refresh
	score  float64 // α·text + static at the last refresh
}

// topView is one user's materialised continuous top-k (DESIGN.md §3.1).
//
// Invariant: every ad that is geo- and slot-eligible for the user and is
// NOT tracked scores at most bound at any query time t with asOf ≤ t and
// t not before the window reference. Budget is ignored by the invariant
// and applied when the answer is emitted, so spend and pacing need no
// invalidation. The invariant survives a delivery because decay and
// eviction only lower an untracked score, and an ad the new message raises
// to where it could exceed bound is put on noted and scored exactly by the
// next refresh. Everything else that could raise an untracked score or
// change eligibility sets dynBuf.view to nil (check-in, ad register and
// unregister, exact rebuild, renormalization) or fails the guard in
// ContinuousTopAds (another slot or k, a query time the bound does not
// cover).
type topView struct {
	k       int
	slot    timeslot.Slot
	asOf    time.Time
	bound   float64 // -Inf: every eligible ad is tracked
	tracked []viewEntry
	noted   []adstore.AdID
}

// ContinuousTopAds is TopAds for a caller that asks again after every
// delivery to u (the facade's continuous mode): the same answer, but
// computed from the user's top-k view — re-scoring only the tracked ads and
// the ads deliveries noted — whenever the view can prove nothing outside it
// belongs in the top k. Otherwise it ranks the whole candidate set once,
// refilling the view. The first call for a user creates the view; a user
// never asked about this way has none.
func (e *CAP) ContinuousTopAds(u feed.UserID, k int, t time.Time) ([]Scored, error) {
	st, err := e.state(u)
	if err != nil {
		return nil, err
	}
	buf := e.bufs[u]
	_, winFactor := st.win.ContextRef(t)
	mult := buf.scale * winFactor
	sl := timeslot.Of(t)

	// A query before the window reference scales text UP (winFactor > 1),
	// which the noted test — made in reference space — does not cover; so
	// does a query before the time the bound was taken at.
	if v := buf.view; v != nil && v.k == k && v.slot == sl && winFactor <= 1 && !t.Before(v.asOf) {
		e.refreshView(v, buf, st, mult)
		if out, ok := e.emit(v, t); ok {
			e.viewRefreshes++
			return out, nil
		}
	}
	e.rerankRefreshes++
	buf.view = e.buildView(buf.view, buf, st, mult, k, sl, t)
	if out, ok := e.emit(buf.view, t); ok {
		return out, nil
	}
	// Even the fresh view cannot prove k payable ads — more than 3k of the
	// best 4k are out of budget, or the k-th ties the bound: only a ranking
	// that checks budget while collecting settles it.
	return e.TopAds(u, k, t)
}

// ContinuousRefresh returns the call a continuous-mode caller makes for a
// user's top-k after each delivery: CAP's ContinuousTopAds, and plain TopAds
// for the baselines, which keep nothing between queries.
func ContinuousRefresh(r Recommender) func(u feed.UserID, k int, t time.Time) ([]Scored, error) {
	if c, ok := r.(*CAP); ok {
		return c.ContinuousTopAds
	}
	return r.TopAds
}

// buildView ranks the user's whole candidate set with a 4k collector that
// ignores budget, and makes the result the tracked set. old's slices are
// reused when there is one.
func (e *CAP) buildView(old *topView, buf *dynBuf, st *userState, mult float64, k int, sl timeslot.Slot, t time.Time) *topView {
	c := topk.NewCollector(viewSlack * k)
	e.rank(c, st, buf, mult, sl, t, false)
	items := c.Items()

	v := old
	if v == nil {
		v = &topView{tracked: make([]viewEntry, 0, len(items)+1)}
	}
	v.k, v.slot, v.asOf = k, sl, t
	v.noted = v.noted[:0]
	v.tracked = v.tracked[:0]
	for _, it := range items {
		a := e.ad(adstore.AdID(it.ID))
		text := buf.get(a.ID) * mult
		v.tracked = append(v.tracked, e.viewEntryFor(a, st, text))
	}
	// Whatever the collector turned away or pushed out scored no higher
	// than the weakest ad it kept; a collector that never filled saw every
	// eligible ad.
	v.bound = math.Inf(-1)
	if c.Len() == c.K() {
		v.bound = items[len(items)-1].Score
	}
	return v
}

func (e *CAP) viewEntryFor(a *adstore.Ad, st *userState, text float64) viewEntry {
	geo := e.scoring.BetaGeo * a.GeoScore(st.loc, st.hasLoc)
	static := geo + e.scoring.GammaBid*a.Bid // staticScore, keeping the geo part
	return viewEntry{a: a, static: static, geo: geo, text: text, score: e.scoring.AlphaText*text + static}
}

// refreshView brings the view up to the present: noted ads that now exceed
// the bound join the tracked set, every tracked ad is re-scored from the
// buffer and re-sorted, and the set is cut back to 4k — an ad cut is
// untracked from here on, so the bound rises to cover its score.
func (e *CAP) refreshView(v *topView, buf *dynBuf, st *userState, mult float64) {
	for i := range v.tracked {
		en := &v.tracked[i]
		en.text = buf.get(en.a.ID) * mult
		en.score = e.scoring.AlphaText*en.text + en.static
	}
	for _, id := range v.noted {
		if slices.ContainsFunc(v.tracked, func(en viewEntry) bool { return en.a.ID == id }) {
			continue
		}
		a := e.ad(id)
		if a == nil || !a.Eligible(st.loc, st.hasLoc, v.slot) {
			continue
		}
		if en := e.viewEntryFor(a, st, buf.get(id)*mult); en.score > v.bound {
			v.tracked = append(v.tracked, en)
		}
	}
	v.noted = v.noted[:0]
	// The collector's order: score descending, ad ID ascending on a tie.
	slices.SortFunc(v.tracked, func(x, y viewEntry) int {
		if c := cmp.Compare(y.score, x.score); c != 0 {
			return c
		}
		return cmp.Compare(x.a.ID, y.a.ID)
	})
	if keep := viewSlack * v.k; len(v.tracked) > keep {
		v.bound = max(v.bound, v.tracked[keep].score)
		v.tracked = v.tracked[:keep]
	}
}

// emit reads the answer off a refreshed view: the first k tracked ads with
// budget left at t. It is THE answer only if no untracked ad can belong in
// it: the k-th score must be strictly above the bound, because an untracked
// ad scoring exactly the bound could still win the ID tie-break.
func (e *CAP) emit(v *topView, t time.Time) ([]Scored, bool) {
	out := make([]Scored, 0, v.k)
	for i := range v.tracked {
		en := &v.tracked[i]
		if en.a.Campaign != "" && !e.store.HasBudget(en.a.ID, t) {
			continue
		}
		out = append(out, Scored{
			Ad:    en.a.ID,
			Score: en.score,
			Text:  e.scoring.AlphaText * en.text,
			Geo:   en.geo,
			Bid:   e.scoring.GammaBid * en.a.Bid,
		})
		if len(out) == v.k {
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

// ContinuousRefreshes reports how many continuous refreshes were answered
// from a view and how many needed the full ranking. Callers hold the
// engine's lock.
func (e *CAP) ContinuousRefreshes() (view, rerank uint64) {
	return e.viewRefreshes, e.rerankRefreshes
}
