package core

import (
	"cmp"
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
// list, computed when the first candidate buffer needs it, and a count of
// what may still need it — one reference per warm user's window holding the
// message, and one per warm user whose buffer still owes its subtraction.
type msgCache struct {
	vec      textproc.SparseVector
	deltas   []index.Delta
	computed bool
	refs     int
}

// maxFixups bounds dynBuf.fix: a buffer that falls this many ad
// registrations behind is freed, and rebuilt by its next read.
const maxFixups = 64

// CAP is the Context-aware Ad Publishing engine — the reconstructed
// contribution. It maintains, per user somebody reads, an incrementally
// updated candidate buffer: a feed event costs one ring store per follower
// (feed.Window keeps no aggregate), the buffer is brought up to date by one
// merge of everything delivered since when the user is next read, and a top-k
// query costs O(|buffer|), independent of the total number of ads; a user
// whose top-k has been asked for also has a view (view.go) that makes the
// next query cost what the deliveries since changed.
type CAP struct {
	*indexed
	opts  CAPOptions
	cache map[feed.MessageID]*msgCache

	// Reusable space: what catchUp lends to dynBuf.merge, and RegisterAd's
	// ⟨ad, message⟩ products by message.
	lists   []weighted
	scratch []bufEntry
	dots    map[feed.MessageID]float64

	viewAnswers, reranks uint64 // TopAds calls by how they were answered
	merges, rebuilds     uint64 // catch-ups by kind
	merged, skipped      uint64 // deliveries by fate
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
		cache:   make(map[feed.MessageID]*msgCache),
		dots:    make(map[feed.MessageID]float64),
	}, nil
}

// AddUser implements Recommender.
func (e *CAP) AddUser(u feed.UserID) {
	if _, ok := e.users[u]; ok {
		return
	}
	e.base.AddUser(u)
	e.users[u].buf = newDynBuf()
}

// AddAd implements Recommender. Beyond indexing, a late-arriving ad is
// back-filled: its text relevance against the window of every user whose
// buffer is up to date, or who has a view to keep valid, is computed from the
// window's messages (textRel: one sparse dot product per distinct message,
// however many windows hold it, and one multiply-add per resident message),
// and its coefficient is inserted into every cached delta list so future
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
//
// The ad's exact coefficient is its text relevance to the window (textRel),
// which is always current; a buffer that is behind is not, so it takes the
// value when it catches up (dynBuf.fix) — the note, which is about the
// window, is made now. A cold user costs nothing.
func (e *CAP) RegisterAd(a *adstore.Ad) {
	e.registerAd(a)
	clear(e.dots)
	for _, st := range e.users {
		buf := st.buf
		behind := buf.applied < st.win.Len()
		if behind && buf.applied > 0 {
			if len(buf.fix) == maxFixups {
				e.chill(st, buf, st.win.Len())
				continue
			}
			buf.fix = append(buf.fix, a.ID)
		}
		if behind && buf.view == nil {
			continue
		}
		coeff := e.textRel(st, a)
		if !behind {
			buf.set(a.ID, coeff)
		}
		e.noteRegistered(st, buf, a, coeff)
	}
	if e.opts.FanoutSharing {
		for _, mc := range e.cache {
			if !mc.computed {
				continue
			}
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

// textRel is ad a's text relevance to st's window at its reference time,
// Σ_i w_i·⟨a, m_i⟩ over the resident messages: the aggregate's dot product
// without summing the aggregate. Each ⟨a, m⟩ is kept in dots, which the
// caller clears for a new ad, because a post sits in every follower's window.
func (e *CAP) textRel(st *userState, a *adstore.Ad) float64 {
	sum, ref := 0.0, st.win.Ref()
	for i := range st.win.Len() {
		m := st.win.At(i)
		d, ok := e.dots[m.ID]
		if !ok {
			d = a.Vec.Dot(m.Vec)
			e.dots[m.ID] = d
		}
		if d != 0 {
			sum += d * e.scoring.Decay.WeightAt(ref.Sub(m.Time))
		}
	}
	return sum
}

// noteRegistered notes a registered ad whose text relevance is coeff if its
// score could reach the view's bound. In reference space, like merge's test:
// a query the view answers is not before the reference, where text scores are
// at their highest.
func (e *CAP) noteRegistered(st *userState, buf *dynBuf, a *adstore.Ad, coeff float64) {
	if v := buf.view; v != nil && e.scoring.AlphaText*coeff+e.scoring.staticScore(a, st.loc, st.hasLoc) >= v.bound {
		buf.note(a.ID)
	}
}

func findDelta(deltas []index.Delta, id adstore.AdID) (int, bool) {
	return slices.BinarySearchFunc(deltas, id, func(d index.Delta, id adstore.AdID) int {
		return cmp.Compare(d.Ad, id)
	})
}

// UnregisterAd drops an ad from the engine's indexes, candidate buffers and
// cached delta lists without touching the store. The cleanup is eager: stale
// buffer entries or cached delta entries for a removed ID would corrupt
// scores if the ID were ever reused. A view that tracks the ad
// goes with it; any other stands, because removing an untracked ad raises no
// score (a noted ID whose ad is gone is skipped by refreshView).
func (e *CAP) UnregisterAd(id adstore.AdID) {
	e.unregisterAd(id)
	for _, st := range e.users {
		b := st.buf
		if b.view != nil && b.view.tracks(id) {
			b.view = nil
		}
		b.remove(id)
	}
	for _, mc := range e.cache {
		// A list not computed yet will be computed without the ad.
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
	e.users[u].buf.view = nil
	return nil
}

// Deliver implements Recommender. A delivery is a window push; what it does
// to a candidate buffer is left owing (dynBuf) until the user is read. A
// follower whose buffer is cold stays so, and a warm one whose last applied
// message this push evicts turns cold: from there a catch-up would subtract
// everything the buffer holds and add the whole window, which is a rebuild.
func (e *CAP) Deliver(msg feed.Message, followers []feed.UserID) error {
	states, err := e.recipients(followers)
	if err != nil {
		return err
	}
	warm := 0
	for _, st := range states {
		buf := st.buf
		evicted, wasEvicted := st.win.Push(msg)
		if buf.applied == 0 {
			// Only an empty window's view gets here; nothing will note for it.
			buf.view = nil
			e.skipped++
			continue
		}
		if wasEvicted {
			buf.applied--
			buf.gone = append(buf.gone, evicted)
			if buf.applied == 0 {
				e.chill(st, buf, st.win.Len()-1) // msg has taken no reference yet
				continue
			}
		}
		warm++
	}
	if warm > 0 && e.opts.FanoutSharing {
		e.acquire(msg, warm)
	}
	return nil
}

// acquire takes n references on a message's shared state, creating it — the
// delta list left for whoever first needs it — if no warm user holds it yet.
func (e *CAP) acquire(msg feed.Message, n int) {
	mc := e.cache[msg.ID]
	if mc == nil {
		mc = &msgCache{vec: msg.Vec}
		e.cache[msg.ID] = mc
	}
	mc.refs += n
}

// release drops one reference, and the shared state with the last.
func (e *CAP) release(id feed.MessageID) {
	if mc := e.cache[id]; mc != nil {
		if mc.refs--; mc.refs <= 0 {
			delete(e.cache, id)
		}
	}
}

// deltasOf returns a message's delta list: the shared one when fan-out
// sharing is on (computed on first use), recomputed otherwise.
func (e *CAP) deltasOf(m feed.Message) []index.Delta {
	if !e.opts.FanoutSharing {
		return e.inv.DeltaList(m.Vec)
	}
	mc := e.cache[m.ID]
	if mc == nil {
		return nil
	}
	if !mc.computed {
		mc.deltas, mc.computed = e.inv.DeltaList(mc.vec), true
	}
	return mc.deltas
}

// chill turns a buffer cold: it frees the entries, the view and the pending
// lists, and releases the user's references — the oldest held resident
// messages took one, and everything in gone holds one. The arrivals the
// buffer never merged are thereby skipped.
func (e *CAP) chill(st *userState, buf *dynBuf, held int) {
	for i := range held {
		e.release(st.win.At(i).ID)
	}
	e.settleGone(buf)
	e.skipped += uint64(st.win.Len() - buf.applied)
	*buf = dynBuf{scale: 1}
}

// settleGone empties the list of evictions a buffer owes, releasing the
// reference each held: they have been applied, or the buffer no longer needs
// them to be.
func (e *CAP) settleGone(buf *dynBuf) {
	for _, m := range buf.gone {
		e.release(m.ID)
	}
	clear(buf.gone)
	buf.gone = buf.gone[:0]
}

// catchUp brings a user's buffer up to the window before something reads it.
// The buffer is linear in the window's weighted term vector, so applying
// every pending eviction and arrival in one pass, each at its weight in the
// current reference space, gives what applying them one by one would have.
// A cold buffer, and one that RebuildEvery deliveries have been merged into,
// is rebuilt instead.
func (e *CAP) catchUp(st *userState, buf *dynBuf) {
	n := st.win.Len()
	pending := n - buf.applied
	if pending == 0 {
		return
	}
	if buf.applied == 0 || (e.opts.RebuildEvery > 0 && buf.ops+pending >= e.opts.RebuildEvery) {
		e.rebuild(st, buf)
		return
	}
	// Age the buffer into the current reference space. Renormalizing
	// rewrites every stored value, which can move an untracked score up by a
	// rounding step: the view goes.
	ref := st.win.Ref()
	if ref.After(buf.ref) {
		if buf.age(e.scoring.Decay.Between(buf.ref, ref)) {
			buf.view = nil
		}
		buf.ref = ref
	}
	// Weights are the pure exponential of ref − post time, so an eviction
	// that happened under an earlier reference is re-derived at this one.
	lists := e.lists[:0]
	for _, m := range buf.gone {
		lists = append(lists, weighted{d: e.deltasOf(m), c: -e.scoring.Decay.WeightAt(ref.Sub(m.Time)) / buf.scale})
	}
	for i := buf.applied; i < n; i++ {
		m := st.win.At(i)
		lists = append(lists, weighted{d: e.deltasOf(m), c: e.scoring.Decay.WeightAt(ref.Sub(m.Time)) / buf.scale})
	}
	e.scratch = buf.merge(e.scratch, lists, len(buf.gone), e.noteAt(buf))
	clear(lists)
	e.lists = lists

	e.settleGone(buf) // applied: only now can their shared lists go
	if len(buf.fix) > 0 {
		// One user and up to maxFixups ads: the aggregate is summed once.
		agg, _ := e.context(st, ref) // factor 1 at the reference
		for _, id := range buf.fix {
			if a := e.ad(id); a != nil {
				coeff := a.Vec.Dot(agg)
				buf.set(id, coeff)
				e.noteRegistered(st, buf, a, coeff)
			}
		}
		buf.fix = buf.fix[:0]
	}
	buf.applied, buf.ops = n, buf.ops+pending
	e.merges, e.merged = e.merges+1, e.merged+uint64(pending)
}

// rebuild recomputes the buffer exactly from the window aggregate, summed
// from the window's messages: how a cold buffer is warmed, and what caps a
// warm one's incremental floating-point drift. The exact values can sit a
// rounding step above the drifted ones, so the view goes. Warming takes a
// reference on every resident message — the user's share of the delta lists
// their evictions will need.
func (e *CAP) rebuild(st *userState, buf *dynBuf) {
	n := st.win.Len()
	if buf.applied > 0 {
		e.merged += uint64(n - buf.applied)
	} else if e.opts.FanoutSharing {
		for i := range n {
			e.acquire(st.win.At(i), 1)
		}
	}
	e.settleGone(buf)
	buf.fix = buf.fix[:0]

	agg, _ := e.context(st, st.win.Ref()) // factor 1 at the reference
	deltas := e.inv.DeltaList(agg)
	buf.fill(len(deltas))
	for i, d := range deltas {
		buf.e[i] = bufEntry{ad: d.Ad, v: d.Coeff}
	}
	buf.scale, buf.ops, buf.view = 1, 0, nil
	buf.applied, buf.ref = n, st.win.Ref()
	e.rebuilds++
}

// TopAds implements Recommender. The candidate set is first brought up to
// date (catchUp); no index is traversed unless that has to rebuild it, and
// mostly the set is not walked either: the user's view (view.go) answers
// when it can prove the top k lies inside it. Otherwise the set is ranked once, ignoring budget, to refill the
// view, and the answer read off that. The budget-aware ranking is left with a
// k too large for a view, and (timed as topk) a fresh view short of payable ads.
func (e *CAP) TopAds(u feed.UserID, k int, t time.Time) ([]Scored, error) {
	st, err := e.state(u)
	if err != nil {
		return nil, err
	}
	buf, span := st.buf, time.Now()
	e.catchUp(st, buf)
	winFactor := e.scoring.Decay.Between(st.win.Ref(), t)
	mult, sl := buf.scale*winFactor, timeslot.Of(t)
	viewable := viewSlack*k <= viewMaxTracked
	if viewable {
		if out, ok := e.fromView(st, buf, mult, winFactor, k, sl, t, span); ok {
			return out, nil
		}
	}
	e.reranks, e.last.Path = e.reranks+1, "rerank"
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

// BufferSize returns the candidate-buffer size of a user, caught up first:
// a memory/latency diagnostic for the experiments, and the tests' oracle.
func (e *CAP) BufferSize(u feed.UserID) int {
	st, ok := e.users[u]
	if !ok {
		return 0
	}
	e.catchUp(st, st.buf)
	return len(st.buf.e)
}

// CachedMessages returns the number of messages with live shared state
// (fan-out sharing memory diagnostic).
func (e *CAP) CachedMessages() int { return len(e.cache) }

// TotalBufferEntries returns the summed size of the candidate buffers as
// they are materialised — nothing is caught up, a cold user counts 0 (memory
// diagnostic).
func (e *CAP) TotalBufferEntries() int {
	total := 0
	for _, st := range e.users {
		total += len(st.buf.e)
	}
	return total
}

// CatchUps counts buffer catch-ups by kind: one merge pass, or a rebuild from
// the window aggregate. Callers hold the engine's lock.
func (e *CAP) CatchUps() (merge, rebuild uint64) { return e.merges, e.rebuilds }

// Deliveries counts deliveries by fate: merged into a candidate buffer, or
// skipped — the follower had no buffer, or it was freed before a catch-up.
// Deliveries still pending are in neither. Callers hold the engine's lock.
func (e *CAP) Deliveries() (merged, skipped uint64) { return e.merged, e.skipped }

var (
	_ Recommender = (*CAP)(nil)
	_ Recommender = (*IL)(nil)
	_ Recommender = (*RS)(nil)
)
