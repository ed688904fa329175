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

// indexed bundles the ad indexes shared by the IL and CAP engines: the
// keyword inverted index and the geographic/static pre-filter.
type indexed struct {
	*base
	inv    *index.Inverted
	geoIdx *index.GeoAds
	region geo.Rect
	// ads is a shard-local mirror of the store's live ads. Hot scoring paths
	// read it lock-free (the engine's own mutex serializes mutation), so
	// per-candidate lookups do not contend on the shared store's RWMutex
	// when several shards score in parallel.
	ads map[adstore.AdID]*adstore.Ad
}

func newIndexed(s Scoring, store *adstore.Store, region geo.Rect, gridRows, gridCols int) (*indexed, error) {
	b, err := newBase(s, store)
	if err != nil {
		return nil, err
	}
	gi, err := index.NewGeoAds(region, gridRows, gridCols)
	if err != nil {
		return nil, err
	}
	return &indexed{
		base:   b,
		inv:    index.NewInverted(),
		geoIdx: gi,
		region: region,
		ads:    make(map[adstore.AdID]*adstore.Ad),
	}, nil
}

// registerAd indexes an ad assumed to exist in the (possibly shared) store.
func (ix *indexed) registerAd(a *adstore.Ad) {
	ix.inv.Add(a.ID, a.Vec)
	ix.geoIdx.Add(a)
	ix.ads[a.ID] = a
}

// unregisterAd drops an ad from the engine-local indexes only.
func (ix *indexed) unregisterAd(id adstore.AdID) {
	ix.inv.Remove(id)
	ix.geoIdx.Remove(id)
	delete(ix.ads, id)
}

// ad returns the shard-local ad record (nil when withdrawn).
func (ix *indexed) ad(id adstore.AdID) *adstore.Ad { return ix.ads[id] }

// IndexStats reports the keyword inverted index's size: indexed ads and
// total (term, ad) postings. Callers hold the engine's lock; the facade's
// observability gauges sample it at scrape time.
func (ix *indexed) IndexStats() (ads, postings int) {
	return ix.inv.Len(), ix.inv.Postings()
}

func (ix *indexed) addAd(a *adstore.Ad) error {
	if err := ix.store.Add(a); err != nil {
		return err
	}
	ix.registerAd(a)
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
// geo-targeted ads registered in the user's grid cell plus global ads in
// descending bid order, stopping as soon as no further global ad can enter
// the collector. skip filters ads already offered through the text path;
// budget is offer's. It reports how many static candidates it examined and
// how many passed eligibility gating into the collector, for the score
// stage's trace span.
func (ix *indexed) offerStatic(c *topk.Collector, st *userState, sl timeslot.Slot, t time.Time, budget bool, skip func(adstore.AdID) bool) (examined, offered int) {
	if st.hasLoc {
		for _, id := range ix.geoIdx.LocalCandidates(st.loc) {
			if skip != nil && skip(id) {
				continue
			}
			examined++
			if ix.offer(c, ix.ad(id), 0, st, sl, t, budget) {
				offered++
			}
		}
	}
	// Global ads: bid-descending, so static scores are non-increasing. Once
	// the collector is full and the best remaining static score cannot beat
	// the threshold, no later entry can either.
	for _, id := range ix.geoIdx.GlobalByBid() {
		a := ix.ad(id)
		if a == nil {
			continue
		}
		bound := ix.scoring.staticScore(a, st.loc, st.hasLoc)
		if !c.WouldAccept(bound) {
			break
		}
		if skip != nil && skip(id) {
			continue
		}
		examined++
		if ix.offer(c, a, 0, st, sl, t, budget) {
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
}

// NewIL creates an IL engine over the given coverage region with the given
// spatial grid resolution. A nil store creates a private one.
func NewIL(s Scoring, store *adstore.Store, region geo.Rect, gridRows, gridCols int) (*IL, error) {
	ix, err := newIndexed(s, store, region, gridRows, gridCols)
	if err != nil {
		return nil, err
	}
	return &IL{indexed: ix}, nil
}

// AddAd implements Recommender.
func (e *IL) AddAd(a *adstore.Ad) error { return e.addAd(a) }

// RegisterAd indexes an ad already present in a (shared) store.
func (e *IL) RegisterAd(a *adstore.Ad) { e.registerAd(a) }

// UnregisterAd drops an ad from the engine's indexes without touching the
// store.
func (e *IL) UnregisterAd(id adstore.AdID) { e.unregisterAd(id) }

// TopAds implements Recommender: one inverted-index pass over the context's
// terms yields the exact text relevance of every candidate; the static-only
// remainder comes from the geo/bid index.
func (e *IL) TopAds(u feed.UserID, k int, t time.Time) ([]Scored, error) {
	st, err := e.state(u)
	if err != nil {
		return nil, err
	}
	span := time.Now()
	ctx, factor := e.context(st, t)
	sl := timeslot.Of(t)
	c := topk.NewCollector(k)
	deltas := e.inv.DeltaList(ctx)
	span = e.stageDone(StageRetrieve, span, len(deltas), len(deltas))

	offered := 0
	for _, d := range deltas {
		if e.offer(c, e.ad(d.Ad), d.Coeff*factor, st, sl, t, true) {
			offered++
		}
	}
	examined, offeredStatic := e.offerStatic(c, st, sl, t, true, func(id adstore.AdID) bool {
		_, seen := findDelta(deltas, id)
		return seen
	})
	offered += offeredStatic
	span = e.stageDone(StageScore, span, len(deltas)+examined, offered)

	out := e.resolve(c.Items(), st, func(id adstore.AdID) float64 {
		if i, ok := findDelta(deltas, id); ok {
			return deltas[i].Coeff * factor
		}
		return 0
	})
	e.stageDone(StageTopK, span, offered, len(out))
	return out, nil
}
