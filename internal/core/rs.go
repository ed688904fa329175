package core

import (
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/timeslot"
	"caar/internal/topk"
)

// RS is the Re-Scan baseline: every query scores every ad in the store
// against the user's current context. It is trivially exact and serves as
// the correctness oracle for the other engines; its per-query cost is
// O(|ads| · |ad terms|).
type RS struct {
	*base
}

// NewRS creates an RS engine. A nil store creates a private one.
func NewRS(s Scoring, store *adstore.Store) (*RS, error) {
	b, err := newBase(s, store)
	if err != nil {
		return nil, err
	}
	return &RS{base: b}, nil
}

// AddAd implements Recommender. RS keeps no index; the store is the index.
func (e *RS) AddAd(a *adstore.Ad) error { return e.store.Add(a) }

// RegisterAd indexes an ad that is already present in a (shared) store. RS
// keeps no index, so this is a no-op.
func (e *RS) RegisterAd(a *adstore.Ad) {}

// UnregisterAd drops an ad from the engine's indexes without touching the
// store. RS keeps no index, so this is a no-op.
func (e *RS) UnregisterAd(id adstore.AdID) {}

// TopAds implements Recommender by exhaustive scan. RS has no retrieval
// structure, so its retrieve stage covers only the window-context fetch;
// all the work lands in the score stage — exactly the contrast the
// per-stage spans exist to expose.
func (e *RS) TopAds(u feed.UserID, k int, t time.Time) ([]Scored, error) {
	st, err := e.state(u)
	if err != nil {
		return nil, err
	}
	span := time.Now()
	ctx, factor := e.context(st, t)
	sl := timeslot.Of(t)
	c := topk.NewCollector(k)
	universe := e.store.Len()
	span = e.stageDone(StageRetrieve, span, universe, universe)

	offered := 0
	e.store.ForEach(func(a *adstore.Ad) {
		textRel := a.Vec.Dot(ctx) * factor
		if e.offer(c, a, textRel, st, sl, t, true) {
			offered++
		}
	})
	span = e.stageDone(StageScore, span, universe, offered)

	out := e.resolve(c.Items(), st, func(id adstore.AdID) float64 {
		a := e.store.Get(id)
		if a == nil {
			return 0
		}
		return a.Vec.Dot(ctx) * factor
	})
	e.stageDone(StageTopK, span, offered, len(out))
	return out, nil
}
