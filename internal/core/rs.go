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

// TopAds implements Recommender by exhaustive scan.
func (e *RS) TopAds(u feed.UserID, k int, t time.Time) ([]Scored, error) {
	return e.AppendTopAds(nil, u, k, t)
}

// AppendTopAds is TopAds appending the answer to dst: what lets RS stand in
// for a CAP shard of the caar facade, whose tests run the whole stack over RS
// as their oracle.
func (e *RS) AppendTopAds(dst []Scored, u feed.UserID, k int, t time.Time) ([]Scored, error) {
	st, err := e.state(u)
	if err != nil {
		return nil, err
	}
	ctx, factor := e.context(st, t)
	sl := timeslot.Of(t)
	c := topk.NewCollector(k)
	e.store.ForEach(func(a *adstore.Ad) {
		e.offer(c, a, 0, a.Vec.Dot(ctx)*factor, st, sl, t, true)
	})
	return e.resolve(dst, c.Items(), st, func(it topk.Item) float64 {
		a := e.store.Get(adstore.AdID(it.ID))
		if a == nil {
			return 0
		}
		return a.Vec.Dot(ctx) * factor
	}), nil
}
