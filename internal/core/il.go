package core

import (
	"fmt"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/index"
	"caar/internal/timeslot"
	"caar/internal/topk"
)

// indexed is what the IL and CAP engines share: the per-shard base and the
// AdIndex every shard of the engine reads.
type indexed struct {
	*base
	*AdIndex
}

func newIndexed(s Scoring, store *adstore.Store, ads *AdIndex) (*indexed, error) {
	b, err := newBase(s, store)
	if err != nil {
		return nil, err
	}
	return &indexed{base: b, AdIndex: ads}, nil
}

// AddAd implements Recommender for an engine that is alone on its AdIndex:
// it stores the ad and registers it. A CAP buffer takes the ad at its next
// read (CAP.catchUp).
func (ix *indexed) AddAd(a *adstore.Ad) error {
	if err := ix.store.Add(a); err != nil {
		return err
	}
	ix.Register(a)
	return nil
}

// CheckIn restricts user locations to the indexed region: a user outside the
// grid coverage could match geo-targeted ads the cell index cannot see, so
// the engine rejects the check-in rather than silently degrade to global ads.
func (ix *indexed) CheckIn(u feed.UserID, p geo.Point, t time.Time) error {
	if !ix.region.Contains(p) {
		return fmt.Errorf("core: check-in %v outside indexed region %+v", p, ix.region)
	}
	return ix.base.CheckIn(u, p, t)
}

// offerStatic submits the candidates whose text relevance is zero: the
// geo-targeted ads registered in the user's grid cell, read from the grid in
// place, unless the collector already turns away their score ceiling
// (Scoring.maxStatic), plus global ads in descending bid order, stopping as
// soon as no further global ad can enter the collector. skip filters the
// slots of ads already offered through the text path; budget is offer's. It
// reports how many static candidates it examined and how many passed
// eligibility gating into the collector, for the score stage's trace span.
func (ix *indexed) offerStatic(c *topk.Collector, st *userState, sl timeslot.Slot, t time.Time, budget bool, skip func(uint32) bool) (examined, offered int) {
	if st.hasLoc && c.WouldAccept(ix.scoring.maxStatic()) {
		for _, slot := range ix.geoIdx.LocalCandidates(st.loc) {
			if skip(slot) {
				continue
			}
			examined++
			if ix.offer(c, ix.ads[slot], slot, 0, st, sl, t, budget) {
				offered++
			}
		}
	}
	// Global ads: bid-descending, so static scores are non-increasing. Once
	// the collector is full and the best remaining static score cannot beat
	// the threshold, no later entry can either.
	for _, g := range ix.geoIdx.GlobalByBid() {
		a := ix.ads[g.Slot]
		bound := ix.scoring.staticScore(a, st.loc, st.hasLoc)
		if !c.WouldAccept(bound) {
			break
		}
		if skip(g.Slot) {
			continue
		}
		examined++
		if ix.offer(c, a, g.Slot, 0, st, sl, t, budget) {
			offered++
		}
	}
	return examined, offered
}

// IL is the Inverted-List baseline: per-query threshold evaluation over the
// keyword inverted index. Each query recomputes the delta list of the whole
// window context — exact, and far cheaper than RS, but with no reuse across
// the stream of feed events.
type IL struct {
	*indexed
	acc index.Accumulator
}

// NewIL creates an IL engine over an ad side of its own, with the given
// coverage region and spatial grid resolution. A nil store creates a private
// one.
func NewIL(s Scoring, store *adstore.Store, region geo.Rect, gridRows, gridCols int) (*IL, error) {
	ads, err := NewAdIndex(region, gridRows, gridCols)
	if err != nil {
		return nil, err
	}
	ix, err := newIndexed(s, store, ads)
	if err != nil {
		return nil, err
	}
	return &IL{indexed: ix}, nil
}

// TopAds implements Recommender: one inverted-index pass over the context's
// terms yields the exact text relevance of every candidate; the static-only
// remainder comes from the geo/bid index.
func (e *IL) TopAds(u feed.UserID, k int, t time.Time) ([]Scored, error) {
	st, err := e.state(u)
	if err != nil {
		return nil, err
	}
	ctx, factor := e.context(st, t)
	sl := timeslot.Of(t)
	c := topk.NewCollector(k)
	deltas := e.acc.DeltaList(e.inv, ctx)
	for _, d := range deltas {
		e.offer(c, e.ads[d.Slot], d.Slot, d.Coeff.Float64()*factor, st, sl, t, true)
	}
	e.offerStatic(c, st, sl, t, true, func(slot uint32) bool {
		_, seen := findDelta(deltas, slot)
		return seen
	})
	return e.resolve(nil, c.Items(), st, func(it topk.Item) float64 {
		if i, ok := findDelta(deltas, it.Slot); ok {
			return deltas[i].Coeff.Float64() * factor
		}
		return 0
	}), nil
}
