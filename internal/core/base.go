package core

import (
	"fmt"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
	"caar/internal/topk"
)

// userState is the one per-user record of every engine: the feed window, the
// last known location and, under CAP, the location's grid cell (noCell
// without one) and the candidate buffer (nil for RS and IL, and under CAP
// while the user is cold: dynBuf).
type userState struct {
	win    *feed.Window
	loc    geo.Point
	hasLoc bool
	cell   geo.Reach
	buf    *dynBuf
}

// base carries the state and helpers common to all engines.
type base struct {
	scoring Scoring
	store   *adstore.Store
	users   map[feed.UserID]*userState
	states  []*userState          // recipients' reusable result
	ctx     textproc.SparseVector // context's reusable result
	last    Query                 // the last TopAds (stages.go)
}

func newBase(s Scoring, store *adstore.Store) (*base, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		store = adstore.NewStore()
	}
	return &base{
		scoring: s,
		store:   store,
		users:   make(map[feed.UserID]*userState),
	}, nil
}

// context sums a user's window aggregate into the engine's reusable vector
// and returns it with the factor that takes it to time q. The vector is valid
// until the next call.
func (b *base) context(st *userState, q time.Time) (_ textproc.SparseVector, factor float64) {
	b.ctx, factor = st.win.Aggregate(b.ctx, q)
	return b.ctx, factor
}

// WindowStats reports the number of registered users and the total count of
// window-resident messages — the live feed-context occupancy, which tests
// check delivery against. Callers hold the engine's lock.
func (b *base) WindowStats() (users, entries int) {
	for _, st := range b.users {
		entries += st.win.Len()
	}
	return len(b.users), entries
}

func (b *base) AddUser(u feed.UserID) {
	if _, ok := b.users[u]; ok {
		return
	}
	b.users[u] = &userState{win: feed.NewWindow(b.scoring.WindowCap, b.scoring.Decay)}
}

func (b *base) CheckIn(u feed.UserID, p geo.Point, t time.Time) error {
	if err := p.Validate(); err != nil {
		return err
	}
	st, ok := b.users[u]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownUser, u)
	}
	st.loc = p
	st.hasLoc = true
	return nil
}

// recipients resolves a fan-out to its followers' states, all or nothing: an
// unknown follower fails the delivery before any window is touched. The result
// is valid until the next call.
func (b *base) recipients(followers []feed.UserID) ([]*userState, error) {
	states := b.states[:0]
	for _, u := range followers {
		st, ok := b.users[u]
		if !ok {
			return nil, fmt.Errorf("%w: follower %d", ErrUnknownUser, u)
		}
		states = append(states, st)
	}
	b.states = states
	return states, nil
}

// Deliver implements Recommender for the engines that do no per-event index
// work (RS, IL): push the message's record into each follower's window.
func (b *base) Deliver(msg feed.Message, followers []feed.UserID) error {
	states, err := b.recipients(followers)
	if err != nil {
		return err
	}
	p := &feed.Post{Message: msg}
	for _, st := range states {
		st.win.Push(p)
	}
	return nil
}

func (b *base) state(u feed.UserID) (*userState, error) {
	st, ok := b.users[u]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownUser, u)
	}
	return st, nil
}

// offer gates eligibility and (when budget is set) budget, scores the ad
// given its raw text relevance, and submits it to the collector with its slot
// (0 for an engine without slots). It reports whether the ad was eligible
// (not necessarily retained). Eligibility and the geo score come from one
// distance to the target (adstore.Ad.Place).
func (b *base) offer(c *topk.Collector, a *adstore.Ad, slot uint32, relevance float64, st *userState, sl timeslot.Slot, t time.Time, budget bool) bool {
	if a == nil {
		return false
	}
	geoScore, ok := a.Place(st.loc, st.hasLoc, sl)
	if !ok {
		return false
	}
	// Campaign-less ads are always servable; only budgeted ads need the
	// (shared, locked) store consulted on the hot path.
	if budget && a.Campaign != "" && !b.store.HasBudget(a.ID, t) {
		return false
	}
	score := b.scoring.AlphaText*relevance + b.scoring.static(a, geoScore)
	c.OfferSlot(int64(a.ID), slot, score)
	return true
}

// resolve appends collector output to dst as Scored results with component
// decomposition, recomputing components for explainability.
func (b *base) resolve(dst []Scored, items []topk.Item, st *userState, relevanceOf func(topk.Item) float64) []Scored {
	out := grow(dst, len(items))
	for _, it := range items {
		if a := b.store.Get(adstore.AdID(it.ID)); a != nil {
			out = append(out, b.decompose(a, it.Score, relevanceOf(it), st))
		}
	}
	return out
}

// grow returns dst with room for n more results. (slices.Grow would do, but
// allocates twice under the race detector.)
func grow(dst []Scored, n int) []Scored {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]Scored, 0, len(dst)+n), dst...)
}

// decompose is one result: the ad, its score, and the score's three parts.
func (b *base) decompose(a *adstore.Ad, score, relevance float64, st *userState) Scored {
	return Scored{Ad: a.ID, Score: score, Text: b.scoring.AlphaText * relevance,
		Geo: b.scoring.BetaGeo * a.GeoScore(st.loc, st.hasLoc), Bid: b.scoring.GammaBid * a.Bid}
}
