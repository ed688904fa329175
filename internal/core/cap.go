package core

import (
	"sync/atomic"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/index"
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
	opts CAPOptions
	// coll is what a re-rank ranks in, a view's refill and a budget-aware
	// ranking alike: reset for each, kept under the shard lock.
	coll topk.Collector

	// The counters are atomic, so a scrape reads them without the engine's
	// lock (TopAdsPaths, CatchUps, Deliveries); only the lock's holder
	// moves them.
	viewAnswers, reranks atomic.Uint64 // TopAds calls by how they were answered
	merges, rebuilds     atomic.Uint64 // catch-ups by kind
	merged, skipped      atomic.Uint64 // deliveries by fate

	// entries is the candidate-buffer entries materialised over the users,
	// moved by catchUp and chill: atomic, so TotalBufferEntries reads it
	// without the engine's lock.
	entries atomic.Int64
}

// NewCAP creates a CAP engine over an ad side of its own, with the given
// region and grid resolution. A nil store creates a private one.
func NewCAP(s Scoring, store *adstore.Store, region geo.Rect, gridRows, gridCols int, opts CAPOptions) (*CAP, error) {
	ads, err := NewAdIndex(region, gridRows, gridCols)
	if err != nil {
		return nil, err
	}
	return NewCAPOn(s, store, ads, opts)
}

// NewCAPOn creates a CAP engine — one shard — over a shared ad side.
func NewCAPOn(s Scoring, store *adstore.Store, ads *AdIndex, opts CAPOptions) (*CAP, error) {
	ix, err := newIndexed(s, store, ads)
	if err != nil {
		return nil, err
	}
	return &CAP{
		indexed: ix,
		opts:    opts,
	}, nil
}

// AddUser implements Recommender.
func (e *CAP) AddUser(u feed.UserID) {
	if _, ok := e.users[u]; ok {
		return
	}
	e.base.AddUser(u)
	e.users[u].cell = noCell
}

// noteRegistered notes a registered ad whose text relevance is coeff if its
// score could reach the view's bound: a new ad is an untracked ad no view's
// bound accounts for, so a view keeps its invariant by noting it exactly as a
// delivery notes an ad it raises (dynBuf.merge). In reference space, like
// merge's test: a query the view answers is not before the reference, where
// text scores are at their highest. A bound of -Inf — every eligible ad is
// tracked — always notes.
func (e *CAP) noteRegistered(st *userState, buf *dynBuf, a *adstore.Ad, slot uint32, coeff float64) {
	if v := buf.view; v != nil && e.scoring.AlphaText*coeff+e.scoring.staticScore(a, st.loc, st.hasLoc) >= v.bound {
		buf.note(slot)
	}
}

// CheckIn implements Recommender. Moving changes which geo-targeted ads are
// eligible and every static score, so the user's view goes. A move to another
// grid cell also changes which ads the candidate buffer may hold: its next
// read rebuilds it (catchUp).
func (e *CAP) CheckIn(u feed.UserID, p geo.Point, t time.Time) error {
	if err := e.indexed.CheckIn(u, p, t); err != nil {
		return err
	}
	st := e.users[u]
	st.cell = e.grid.Reach(geo.NewRect(p, p))
	if st.buf != nil {
		st.buf.view = nil
	}
	return nil
}

// Deliver implements Recommender: DeliverPost of the message's own record.
func (e *CAP) Deliver(msg feed.Message, followers []feed.UserID) error {
	return e.DeliverPost(&feed.Post{Message: msg}, followers)
}

// DeliverPost delivers a post's record to followers. A delivery is a window
// push; what it does to a candidate buffer is left owing (dynBuf) until the
// user is read. A follower whose buffer is cold has none after it, and a warm
// one whose last applied post this push evicts turns cold: from there a
// catch-up would subtract everything the buffer holds and add the whole
// window, which is a rebuild.
func (e *CAP) DeliverPost(p *feed.Post, followers []feed.UserID) error {
	states, err := e.recipients(followers)
	if err != nil {
		return err
	}
	warm, skipped := 0, 0
	for _, st := range states {
		buf := st.buf
		evicted := st.win.Push(p)
		if buf == nil || buf.applied == 0 {
			// Only a buffer read with an empty window is cold and not nil: it
			// holds no entry and no reference, and nothing will note for its view.
			st.buf = nil
			skipped++
			continue
		}
		if evicted != nil {
			buf.applied--
			buf.gone = append(buf.gone, evicted)
			if buf.applied == 0 {
				e.chill(st, buf, st.win.Len()-1) // p has taken no reference yet
				continue
			}
		}
		warm++
	}
	if skipped > 0 {
		e.skipped.Add(uint64(skipped))
	}
	if warm > 0 && e.opts.FanoutSharing {
		e.hold(p, warm)
	}
	return nil
}

// chill turns a buffer cold: it releases the user's references — the oldest
// held resident posts took one, and everything in gone holds one — and drops
// the buffer, entries, view and pending lists. The arrivals the buffer never
// merged are thereby skipped.
func (e *CAP) chill(st *userState, buf *dynBuf, held int) {
	if e.opts.FanoutSharing {
		for i := range held {
			e.release(st.win.At(i))
		}
	}
	e.settleGone(buf)
	e.skipped.Add(uint64(st.win.Len() - buf.applied))
	e.entries.Add(-int64(len(buf.e)))
	st.buf = nil
}

// settleGone empties the list of evictions a buffer owes, releasing the
// reference each held: they have been applied, or the buffer no longer needs
// them to be.
func (e *CAP) settleGone(buf *dynBuf) {
	if e.opts.FanoutSharing {
		e.release(buf.gone...)
	}
	clear(buf.gone)
	buf.gone = buf.gone[:0]
}

// catchUp brings a user's buffer up to the window and to the ad side before
// something reads it. The buffer is linear in the window's weighted term
// vector, so applying every pending eviction and arrival in one pass, each at
// its weight in the current reference space, gives what applying them one by
// one would have; each list is first scoped to the ads whose reach holds the
// user's cell, the only ones the buffer holds. A cold buffer, one scoped to
// another cell than the user's, one that RebuildEvery deliveries have been
// merged into, and one more than churnCap ad registrations behind are
// rebuilt instead; an empty window that far behind only drops its view.
// Otherwise the pass ends by settling the ad churn since the buffer last
// looked (settleChurn).
func (e *CAP) catchUp(st *userState, buf *dynBuf) {
	had := len(buf.e)
	e.bringUp(st, buf)
	if d := len(buf.e) - had; d != 0 {
		e.entries.Add(int64(d))
	}
}

// bringUp is catchUp but for the count of materialised entries.
func (e *CAP) bringUp(st *userState, buf *dynBuf) {
	n := st.win.Len()
	pending, churn := n-buf.applied, e.churned-buf.churned
	moved := buf.applied > 0 && buf.cell != st.cell
	if pending == 0 && churn == 0 && !moved {
		return
	}
	if n > 0 && (buf.applied == 0 || moved || churn > churnCap || (e.opts.RebuildEvery > 0 && buf.ops+pending >= e.opts.RebuildEvery)) {
		e.rebuild(st, buf)
		return
	}
	if churn > churnCap {
		buf.view, buf.churned = nil, e.churned
		return
	}
	ref := st.win.Ref()
	if pending > 0 {
		// Age the buffer into the current reference space. Renormalizing
		// rewrites every stored value, which can move an untracked score up
		// by a rounding step: the view goes.
		if ref.After(buf.ref) {
			if buf.age(e.scoring.Decay.Between(buf.ref, ref)) {
				buf.view = nil
			}
			buf.ref = ref
		}
		// Weights are the pure exponential of ref − post time, so an
		// eviction that happened under an earlier reference is re-derived at
		// this one. A post's list is its shared one (AdIndex.deltaList) under
		// fan-out sharing, recomputed here otherwise.
		ws := e.borrow()
		lists, arena := ws.lists[:0], ws.arena[:0]
		add := func(p *feed.Post, c float64) {
			var d []index.Delta
			if e.opts.FanoutSharing {
				d = e.deltaList(p, &ws.acc)
			} else {
				d = ws.acc.Deltas(e.inv, p.Vec)
			}
			start := len(arena) // a list keeps the array it was scoped into if the arena outgrows it
			arena = scope(arena, d, e.reach, st.cell)
			lists = append(lists, weighted{d: arena[start:], c: c})
		}
		for _, p := range buf.gone {
			add(p, -e.scoring.Decay.WeightAt(ref.Sub(p.Time))/buf.scale)
		}
		for i := buf.applied; i < n; i++ {
			p := st.win.At(i)
			add(p, e.scoring.Decay.WeightAt(ref.Sub(p.Time))/buf.scale)
		}
		ws.arena = arena
		ws.scratch = buf.merge(ws.scratch, lists, len(buf.gone), e.noteAt(buf))
		clear(lists)
		ws.lists = lists
		e.giveBack(ws)

		e.settleGone(buf) // applied: only now can their shared lists go
		buf.applied, buf.ops = n, buf.ops+pending
		e.merges.Add(1)
		e.merged.Add(uint64(pending))
	}
	if churn > 0 {
		e.settleChurn(st, buf, ref)
	}
}

// settleChurn brings an up-to-date buffer to the ads registered or withdrawn
// since it last looked, at most churnCap of them. A live ad gets its exact
// coefficient from the window aggregate, summed once: neither what the buffer
// held nor what a merge added accounts for it consistently. A new ad is then
// noted if it could reach the view's bound. A withdrawn ad leaves the buffer,
// and so does one whose reach does not hold the user's cell.
// A view that tracks a churned ad goes — a withdrawn ad's record would stay in
// the answer, a re-registered ID's would be stale — and any other stands,
// because removing an untracked ad raises no score.
func (e *CAP) settleChurn(st *userState, buf *dynBuf, ref time.Time) {
	agg, _ := e.context(st, ref) // factor 1 at the reference
	for i := buf.churned; i < e.churned; i++ {
		slot := e.churn[i%churnCap]
		if v := buf.view; v != nil && v.tracks(slot) {
			buf.view = nil
		}
		a := e.ads[slot]
		if a == nil || !e.reach[slot].Holds(st.cell) {
			buf.remove(slot)
			continue
		}
		coeff := a.Vec.Dot(agg)
		buf.set(slot, coeff)
		e.noteRegistered(st, buf, a, slot, coeff)
	}
	buf.churned = e.churned
}

// rebuild recomputes the buffer exactly from the window aggregate, summed
// from the window's messages and scoped to the user's cell: how a cold buffer
// is warmed, how a warm one follows its user to another cell, and what caps
// its incremental floating-point drift. The exact values can sit a
// rounding step above the drifted ones, so the view goes. Warming takes a
// reference on every resident post — the user's share of the delta lists
// their evictions will need.
func (e *CAP) rebuild(st *userState, buf *dynBuf) {
	n := st.win.Len()
	if buf.applied > 0 {
		e.merged.Add(uint64(n - buf.applied))
	} else if e.opts.FanoutSharing {
		for i := range n {
			e.hold(st.win.At(i), 1)
		}
	}
	e.settleGone(buf)
	buf.churned = e.churned

	agg, _ := e.context(st, st.win.Ref()) // factor 1 at the reference
	ws := e.borrow()
	ws.arena = scope(ws.arena[:0], ws.acc.Deltas(e.inv, agg), e.reach, st.cell)
	buf.fill(len(ws.arena))
	copy(buf.e, ws.arena)
	e.giveBack(ws)
	buf.scale, buf.ops, buf.view = 1, 0, nil
	buf.applied, buf.cell, buf.ref = n, st.cell, st.win.Ref()
	e.rebuilds.Add(1)
}

// TopAds implements Recommender. The candidate set is first brought up to
// date (catchUp); no index is traversed unless that has to rebuild it, and
// mostly the set is not walked either: the user's view (view.go) answers
// when it can prove the top k lies inside it. Otherwise the set is ranked once, ignoring budget, to refill the
// view, and the answer read off that. The budget-aware ranking is left with a
// k too large for a view, and (timed as topk) a fresh view short of payable ads.
func (e *CAP) TopAds(u feed.UserID, k int, t time.Time) ([]Scored, error) {
	return e.AppendTopAds(nil, u, k, t)
}

// AppendTopAds is TopAds appending the answer to dst, which it grows only
// when dst has no room for k more.
func (e *CAP) AppendTopAds(dst []Scored, u feed.UserID, k int, t time.Time) ([]Scored, error) {
	st, err := e.state(u)
	if err != nil {
		return nil, err
	}
	dst = grow(dst, k)
	buf, span := st.read(), time.Now()
	e.catchUp(st, buf)
	winFactor := e.scoring.Decay.Between(st.win.Ref(), t)
	mult, sl := buf.scale*winFactor, timeslot.Of(t)
	viewable := viewSlack*k <= viewMaxTracked
	if viewable {
		if out, ok := e.fromView(dst, st, buf, mult, winFactor, k, sl, t, span); ok {
			return out, nil
		}
	}
	e.reranks.Add(1)
	e.last.Path = "rerank"
	span = e.stageDone(StageRetrieve, span, len(buf.e), len(buf.e))
	if viewable {
		examined, offered := e.buildView(buf, st, mult, k, sl, t)
		span = e.stageDone(StageScore, span, examined, offered)
		if out, ok := e.emit(dst, buf.view, st, buf, mult, k, t); ok {
			e.stageDone(StageTopK, span, offered, len(out)-len(dst))
			return out, nil
		}
	}
	c := &e.coll
	c.Reset(k)
	examined, offered := e.rank(c, st, buf, mult, sl, t, true)
	if !viewable {
		span = e.stageDone(StageScore, span, examined, offered)
	}
	out := e.resolve(dst, c.Sorted(), st, func(it topk.Item) float64 { return buf.get(it.Slot) * mult })
	e.stageDone(StageTopK, span, offered, len(out)-len(dst))
	return out, nil
}

// rank offers the user's whole candidate set to c: every buffered ad at its
// text relevance, then the static-only remainder. An entry is read only if
// its score ceiling, α·text + maxStatic (DESIGN §3.1 item 5), could still
// enter c: one that cannot would be turned away, so skipping it leaves c as
// it was. budget false ranks as if every campaign
// could pay (a view applies budget when it emits). It reports how many
// candidates it examined and how many eligible ones reached c.
func (e *CAP) rank(c *topk.Collector, st *userState, buf *dynBuf, mult float64, sl timeslot.Slot, t time.Time, budget bool) (examined, offered int) {
	maxStatic := e.scoring.maxStatic()
	for _, en := range buf.e {
		rel := en.Coeff.Float64() * mult
		if c.WouldAccept(e.scoring.AlphaText*rel+maxStatic) && e.offer(c, e.ads[en.Slot], en.Slot, rel, st, sl, t, budget) {
			offered++
		}
	}
	examined, offeredStatic := e.offerStatic(c, st, sl, t, budget, func(slot uint32) bool {
		_, seen := buf.find(slot)
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
	buf := st.read()
	e.catchUp(st, buf)
	return len(buf.e)
}

// TotalBufferEntries returns the summed size of the candidate buffers as
// they are materialised — nothing is caught up, a cold user counts 0 (memory
// diagnostic). It reads one atomic, so it needs no engine lock.
func (e *CAP) TotalBufferEntries() int { return int(e.entries.Load()) }

// CatchUps counts buffer catch-ups by kind: one merge pass, or a rebuild from
// the window aggregate. It reads atomics, so it needs no engine lock.
func (e *CAP) CatchUps() (merge, rebuild uint64) { return e.merges.Load(), e.rebuilds.Load() }

// Deliveries counts deliveries by fate: merged into a candidate buffer, or
// skipped — the follower had no buffer, or it was freed before a catch-up.
// Deliveries still pending are in neither. It reads atomics, so it needs no
// engine lock.
func (e *CAP) Deliveries() (merged, skipped uint64) { return e.merged.Load(), e.skipped.Load() }

var (
	_ Recommender = (*CAP)(nil)
	_ Recommender = (*IL)(nil)
	_ Recommender = (*RS)(nil)
)
