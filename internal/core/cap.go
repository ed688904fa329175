package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/index"
	"caar/internal/textproc"
	"caar/internal/timeslot"
	"caar/internal/topk"
)

// CAPOptions toggles the CAP engine's optimizations for ablation studies.
type CAPOptions struct {
	// FanoutSharing computes each message's ad-delta list once and shares it
	// across all followers (and caches it for eviction time). Disabling it
	// recomputes the delta list per follower and per eviction.
	FanoutSharing bool

	// RebuildEvery caps floating-point drift by recomputing a user's
	// candidate buffer exactly from the window aggregate after this many
	// incremental updates. 0 disables periodic rebuilds.
	RebuildEvery int
}

// DefaultCAPOptions returns the production configuration.
func DefaultCAPOptions() CAPOptions {
	return CAPOptions{FanoutSharing: true, RebuildEvery: 256}
}

// msgCache is the shared per-message state of fan-out sharing: the delta
// list computed once at delivery, reference-counted by the number of feed
// windows still holding the message.
type msgCache struct {
	vec    textproc.SparseVector
	deltas []index.Delta
	refs   int
}

// CAP is the Context-aware Ad Publishing engine — the reconstructed
// contribution. It maintains, per user, an incrementally-updated candidate
// buffer so a feed event costs one merge of the message's delta list per
// follower and a top-k query costs O(|buffer|), independent of the total
// number of ads; a user whose top-k has been asked for also has a view
// (view.go) that makes the next query cost what the deliveries since changed.
type CAP struct {
	*indexed
	opts  CAPOptions
	bufs  map[feed.UserID]*dynBuf
	cache map[feed.MessageID]*msgCache

	// scratch is the merge space Deliver lends to dynBuf.merge.
	scratch []bufEntry

	viewAnswers, reranks uint64 // TopAds calls by how they were answered
	lastPath             string // and the last one's: "view" or "rerank"
}

// NewCAP creates a CAP engine over the given region and grid resolution.
func NewCAP(s Scoring, store *adstore.Store, region geo.Rect, gridRows, gridCols int, opts CAPOptions) (*CAP, error) {
	ix, err := newIndexed(s, store, region, gridRows, gridCols)
	if err != nil {
		return nil, err
	}
	return &CAP{
		indexed: ix,
		opts:    opts,
		bufs:    make(map[feed.UserID]*dynBuf),
		cache:   make(map[feed.MessageID]*msgCache),
	}, nil
}

// Name implements Recommender.
func (e *CAP) Name() string { return "CAP" }

// AddUser implements Recommender.
func (e *CAP) AddUser(u feed.UserID) {
	if _, ok := e.users[u]; ok {
		return
	}
	e.base.AddUser(u)
	e.bufs[u] = newDynBuf()
}

// AddAd implements Recommender. Beyond indexing, a late-arriving ad is
// back-filled: its text relevance against every non-empty window is computed
// from the window aggregate (one sparse dot product per such user), and its
// coefficient against every cached live message is inserted so future
// evictions stay exact.
func (e *CAP) AddAd(a *adstore.Ad) error {
	if err := e.store.Add(a); err != nil {
		return err
	}
	e.RegisterAd(a)
	return nil
}

// RegisterAd indexes an ad already present in a (shared) store and
// back-fills its candidate-buffer coefficients. A new ad is an untracked ad
// no view's bound accounts for; a view keeps its invariant by noting the ad
// if its score could reach the bound, exactly as a delivery notes an ad it
// raises (dynBuf.merge). A bound of -Inf — every eligible ad is tracked —
// always notes.
func (e *CAP) RegisterAd(a *adstore.Ad) {
	e.registerAd(a)
	for u, st := range e.users {
		buf, coeff := e.bufs[u], 0.0
		if st.win.Len() > 0 {
			agg, factor := st.win.ContextRef(st.win.Ref())
			if coeff = a.Vec.Dot(agg) * factor; coeff != 0 {
				buf.add(a.ID, coeff)
			}
		}
		// In reference space, like merge's test: a query the view answers is
		// not before the reference, where text scores are at their highest.
		if v := buf.view; v != nil && e.scoring.AlphaText*coeff+e.scoring.staticScore(a, st.loc, st.hasLoc) >= v.bound {
			buf.note(a.ID)
		}
	}
	if e.opts.FanoutSharing {
		for _, mc := range e.cache {
			if c := a.Vec.Dot(mc.vec); c != 0 {
				// At its sorted position, not the end: shards register
				// concurrently minted IDs in any order, and merge relies on
				// the ascending order DeltaList gave the list.
				i, _ := findDelta(mc.deltas, a.ID)
				mc.deltas = slices.Insert(mc.deltas, i, index.Delta{Ad: a.ID, Coeff: c})
			}
		}
	}
}

func findDelta(deltas []index.Delta, id adstore.AdID) (int, bool) {
	return slices.BinarySearchFunc(deltas, id, func(d index.Delta, id adstore.AdID) int {
		return cmp.Compare(d.Ad, id)
	})
}

// RemoveAd implements Recommender with eager cleanup: stale buffer entries
// or cached delta entries for a removed ID would corrupt scores if the ID
// were ever reused.
func (e *CAP) RemoveAd(id adstore.AdID) error {
	if err := e.store.Remove(id); err != nil {
		return err
	}
	e.UnregisterAd(id)
	return nil
}

// UnregisterAd drops an ad from the engine's indexes, candidate buffers and
// cached delta lists without touching the store. A view that tracks the ad
// goes with it; any other stands, because removing an untracked ad raises no
// score (a noted ID whose ad is gone is skipped by refreshView).
func (e *CAP) UnregisterAd(id adstore.AdID) {
	e.unregisterAd(id)
	for _, b := range e.bufs {
		if b.view != nil && b.view.tracks(id) {
			b.view = nil
		}
		b.remove(id)
	}
	for _, mc := range e.cache {
		if i, ok := findDelta(mc.deltas, id); ok {
			mc.deltas = slices.Delete(mc.deltas, i, i+1)
		}
	}
}

// CheckIn implements Recommender. Moving changes which geo-targeted ads are
// eligible and every static score, so the user's view goes.
func (e *CAP) CheckIn(u feed.UserID, p geo.Point, t time.Time) error {
	if err := e.indexed.CheckIn(u, p, t); err != nil {
		return err
	}
	e.bufs[u].view = nil
	return nil
}

// Deliver implements Recommender: the heart of the engine.
func (e *CAP) Deliver(msg feed.Message, followers []feed.UserID) error {
	// Validate the whole fan-out first so a partial failure cannot leave
	// some windows updated and others not.
	states := make([]*userState, len(followers))
	for i, u := range followers {
		st, ok := e.users[u]
		if !ok {
			return fmt.Errorf("%w: follower %d", ErrUnknownUser, u)
		}
		states[i] = st
	}

	var deltas []index.Delta
	if e.opts.FanoutSharing {
		deltas = e.inv.DeltaList(msg.Vec)
		if len(followers) > 0 {
			e.cache[msg.ID] = &msgCache{vec: msg.Vec, deltas: deltas, refs: len(followers)}
		}
	}

	for i, u := range followers {
		st := states[i]
		buf := e.bufs[u]
		if !e.opts.FanoutSharing {
			deltas = e.inv.DeltaList(msg.Vec)
		}

		oldRef := st.win.Ref()
		evicted, wasEvicted := st.win.Push(msg)
		newRef := st.win.Ref()

		// Age the buffer into the new reference space. Renormalizing
		// rewrites every stored value, which can move an untracked score up
		// by a rounding step: the view goes.
		factor := 1.0
		if !oldRef.IsZero() && newRef.After(oldRef) {
			factor = e.scoring.Decay.Between(oldRef, newRef)
			if buf.age(factor) {
				buf.view = nil
			}
		}
		// One pass then subtracts the evicted message's contributions —
		// its weight is in the old reference space, hence the factor — and
		// adds the new message's at its weight in the new one (1 unless the
		// message arrived out of order).
		var gone []index.Delta
		var goneBy float64
		if wasEvicted {
			gone = e.evictedDeltas(evicted)
			goneBy = -evicted.RefWeight() * factor / buf.scale
		}
		w := e.scoring.Decay.WeightAt(newRef.Sub(msg.Time))
		e.scratch = buf.merge(e.scratch, gone, goneBy, deltas, w/buf.scale, e.noteAt(buf))

		e.maybeRebuild(st, buf)
	}
	return nil
}

// evictedDeltas returns an evicted message's delta list: the cached shared
// one when fan-out sharing is on (releasing this window's reference to it),
// recomputed otherwise.
func (e *CAP) evictedDeltas(evicted feed.Entry) []index.Delta {
	if !e.opts.FanoutSharing {
		return e.inv.DeltaList(evicted.Msg.Vec)
	}
	mc := e.cache[evicted.Msg.ID]
	if mc == nil {
		return nil
	}
	mc.refs--
	if mc.refs <= 0 {
		delete(e.cache, evicted.Msg.ID)
	}
	return mc.deltas
}

// maybeRebuild recomputes the buffer exactly from the window aggregate to
// cap incremental floating-point drift. The exact values can sit a rounding
// step above the drifted ones, so the view goes.
func (e *CAP) maybeRebuild(st *userState, buf *dynBuf) {
	if e.opts.RebuildEvery <= 0 {
		return
	}
	buf.ops++
	if buf.ops < e.opts.RebuildEvery {
		return
	}
	agg, factor := st.win.ContextRef(st.win.Ref())
	buf.e = buf.e[:0]
	for _, d := range e.inv.DeltaList(agg) {
		buf.e = append(buf.e, bufEntry{ad: d.Ad, v: d.Coeff * factor})
	}
	buf.scale, buf.ops, buf.view = 1, 0, nil
}

// TopAds implements Recommender. No index is traversed — CAP materialized
// the candidate set at delivery time — and mostly the set is not walked
// either: the user's view (view.go) answers when it can prove the top k lies
// inside it. Otherwise the set is ranked once, ignoring budget, to refill the
// view, and the answer read off that. The budget-aware ranking is left with a
// k too large for a view, and (timed as topk) a fresh view short of payable ads.
func (e *CAP) TopAds(u feed.UserID, k int, t time.Time) ([]Scored, error) {
	st, err := e.state(u)
	if err != nil {
		return nil, err
	}
	buf, span := e.bufs[u], e.stageStart()
	winFactor := e.scoring.Decay.Between(st.win.Ref(), t)
	mult, sl := buf.scale*winFactor, timeslot.Of(t)
	viewable := viewSlack*k <= viewMaxTracked
	if viewable {
		if out, ok := e.fromView(st, buf, mult, winFactor, k, sl, t, span); ok {
			return out, nil
		}
	}
	e.reranks, e.lastPath = e.reranks+1, "rerank"
	span = e.stageDone(StageRetrieve, span, len(buf.e), len(buf.e))
	if viewable {
		examined, offered := e.buildView(buf, st, mult, k, sl, t)
		span = e.stageDone(StageScore, span, examined, offered)
		if out, ok := e.emit(buf.view, st, buf, mult, k, t); ok {
			e.stageDone(StageTopK, span, offered, len(out))
			return out, nil
		}
	}
	c := topk.NewCollector(k)
	examined, offered := e.rank(c, st, buf, mult, sl, t, true)
	if !viewable {
		span = e.stageDone(StageScore, span, examined, offered)
	}
	out := e.resolve(c.Items(), st, func(id adstore.AdID) float64 { return buf.get(id) * mult })
	e.stageDone(StageTopK, span, offered, len(out))
	return out, nil
}

// rank offers the user's whole candidate set to c: every buffered ad at its
// text relevance, then the static-only remainder. budget false ranks as if
// every campaign could pay (a view applies budget when it emits). It
// reports how many candidates it examined and how many were eligible.
func (e *CAP) rank(c *topk.Collector, st *userState, buf *dynBuf, mult float64, sl timeslot.Slot, t time.Time, budget bool) (examined, offered int) {
	for _, en := range buf.e {
		if e.offer(c, e.ad(en.ad), en.v*mult, st, sl, t, budget) {
			offered++
		}
	}
	examined, offeredStatic := e.offerStatic(c, st, sl, t, budget, func(id adstore.AdID) bool {
		_, seen := buf.find(id)
		return seen
	})
	return len(buf.e) + examined, offered + offeredStatic
}

// BufferSize returns the candidate-buffer size of a user, a memory/latency
// diagnostic for the experiments.
func (e *CAP) BufferSize(u feed.UserID) int {
	if b, ok := e.bufs[u]; ok {
		return len(b.e)
	}
	return 0
}

// CachedMessages returns the number of messages with live shared delta
// lists (fan-out sharing memory diagnostic).
func (e *CAP) CachedMessages() int { return len(e.cache) }

// TotalBufferEntries returns the summed candidate-buffer size across all
// users (memory diagnostic).
func (e *CAP) TotalBufferEntries() int {
	total := 0
	for _, b := range e.bufs {
		total += len(b.e)
	}
	return total
}

var (
	_ Recommender = (*CAP)(nil)
	_ Recommender = (*IL)(nil)
	_ Recommender = (*RS)(nil)
)
