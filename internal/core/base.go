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
// last known location and, under CAP, the candidate buffer (nil for RS and IL).
type userState struct {
	win    *feed.Window
	loc    geo.Point
	hasLoc bool
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
		ctx:     textproc.SparseVector{},
	}, nil
}

// context sums a user's window aggregate into the engine's reusable vector
// and returns it with the factor that takes it to time q. The vector is valid
// until the next call.
func (b *base) context(st *userState, q time.Time) (textproc.SparseVector, float64) {
	return b.ctx, st.win.Aggregate(b.ctx, q)
}

// WindowStats reports the number of registered users and the total count of
// window-resident messages — the live feed-context occupancy, sampled by
// the facade's observability gauges. Callers hold the engine's lock.
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
// work (RS, IL): push the message into each follower's window.
func (b *base) Deliver(msg feed.Message, followers []feed.UserID) error {
	states, err := b.recipients(followers)
	if err != nil {
		return err
	}
	for _, st := range states {
		st.win.Push(msg)
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
// given its raw text relevance, and submits it to the collector. It reports
// whether the ad was eligible (not necessarily retained).
func (b *base) offer(c *topk.Collector, a *adstore.Ad, textRel float64, st *userState, sl timeslot.Slot, t time.Time, budget bool) bool {
	if a == nil {
		return false
	}
	if !a.Eligible(st.loc, st.hasLoc, sl) {
		return false
	}
	// Campaign-less ads are always servable; only budgeted ads need the
	// (shared, locked) store consulted on the hot path.
	if budget && a.Campaign != "" && !b.store.HasBudget(a.ID, t) {
		return false
	}
	score := b.scoring.AlphaText*textRel + b.scoring.staticScore(a, st.loc, st.hasLoc)
	c.Offer(int64(a.ID), score)
	return true
}

// resolve converts collector output into Scored results with component
// decomposition, recomputing components for explainability.
func (b *base) resolve(items []topk.Item, st *userState, textRelOf func(adstore.AdID) float64) []Scored {
	out := make([]Scored, 0, len(items))
	for _, it := range items {
		if a := b.store.Get(adstore.AdID(it.ID)); a != nil {
			out = append(out, b.decompose(a, it.Score, textRelOf(a.ID), st))
		}
	}
	return out
}

// decompose is one result: the ad, its score, and the score's three parts.
func (b *base) decompose(a *adstore.Ad, score, textRel float64, st *userState) Scored {
	return Scored{Ad: a.ID, Score: score, Text: b.scoring.AlphaText * textRel,
		Geo: b.scoring.BetaGeo * a.GeoScore(st.loc, st.hasLoc), Bid: b.scoring.GammaBid * a.Bid}
}
