// Package core implements the context-aware ad recommendation engines: the
// exhaustive RS baseline, the inverted-list IL baseline, and the incremental
// CAP engine (the reconstructed contribution of the target paper). All three
// compute the same scoring function and return identical top-k results; they
// differ only in the work they do per feed event and per query.
package core

import (
	"errors"
	"fmt"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/timeslot"
)

// Scoring is the mixing configuration of the ad score
//
//	Score(a, u, t) = AlphaText·TextRel + BetaGeo·GeoProx + GammaBid·Bid
//
// where TextRel is the decayed dot product between the ad's keyword vector
// and the user's feed-window context, GeoProx the distance decay inside the
// ad's target circle (1 for global ads), and Bid the normalized bid.
type Scoring struct {
	AlphaText float64
	BetaGeo   float64
	GammaBid  float64

	// Decay ages feed content; see timeslot.NewDecay.
	Decay timeslot.Decay

	// WindowCap is the per-user feed window size in messages.
	WindowCap int
}

// DefaultScoring returns the configuration used by the evaluation harness:
// text-dominant mixing with a 2-hour half-life over a 32-message window.
func DefaultScoring() Scoring {
	return Scoring{
		AlphaText: 0.6,
		BetaGeo:   0.25,
		GammaBid:  0.15,
		Decay:     timeslot.NewDecay(2 * time.Hour),
		WindowCap: 32,
	}
}

// ErrBadScoring reports an invalid scoring configuration.
var ErrBadScoring = errors.New("core: invalid scoring configuration")

// Validate checks the mixing weights are non-negative with a positive sum
// and the window capacity is positive.
func (s Scoring) Validate() error {
	if s.AlphaText < 0 || s.BetaGeo < 0 || s.GammaBid < 0 {
		return fmt.Errorf("%w: negative mixing weight (α=%v β=%v γ=%v)",
			ErrBadScoring, s.AlphaText, s.BetaGeo, s.GammaBid)
	}
	if s.AlphaText+s.BetaGeo+s.GammaBid == 0 {
		return fmt.Errorf("%w: all mixing weights zero", ErrBadScoring)
	}
	if s.WindowCap < 1 {
		return fmt.Errorf("%w: window capacity %d", ErrBadScoring, s.WindowCap)
	}
	return nil
}

// staticScore is the time-invariant part of an ad's score for a user at a
// fixed location: geography and bid. It ignores eligibility; callers gate
// eligibility first.
func (s Scoring) staticScore(a *adstore.Ad, loc geo.Point, hasLoc bool) float64 {
	return s.BetaGeo*a.GeoScore(loc, hasLoc) + s.GammaBid*a.Bid
}

// Scored is one recommendation: the ad, its total score, and the score
// decomposition for explainability.
type Scored struct {
	Ad    adstore.AdID
	Score float64
	Text  float64 // AlphaText·TextRel component
	Geo   float64 // BetaGeo·GeoProx component
	Bid   float64 // GammaBid·Bid component
}

// Recommender is the interface all three engines implement. Methods are not
// safe for concurrent use; the public facade serializes access (or shards
// users across engine instances).
type Recommender interface {
	// AddUser registers a user with an empty feed window.
	AddUser(u feed.UserID)

	// AddAd registers a servable ad.
	AddAd(a *adstore.Ad) error

	// CheckIn updates a user's location context.
	CheckIn(u feed.UserID, p geo.Point, t time.Time) error

	// Deliver fans a posted message out to the given followers' feed
	// windows. The follower list comes from the social graph, including the
	// author when the platform shows users their own posts.
	Deliver(msg feed.Message, followers []feed.UserID) error

	// TopAds returns the k highest-scoring eligible ads for u at time t,
	// best first. Ads must be slot-eligible, geo-eligible, and have
	// remaining (paced) budget.
	TopAds(u feed.UserID, k int, t time.Time) ([]Scored, error)
}

// ErrUnknownUser reports an operation on an unregistered user.
var ErrUnknownUser = errors.New("core: unknown user")

// Shardable extends Recommender with index-only ad registration, used when
// several engine shards share one (concurrency-safe) ad store: the facade
// adds the ad to the store once and registers it with every shard.
type Shardable interface {
	Recommender
	// RegisterAd indexes an ad assumed to already exist in the store.
	RegisterAd(a *adstore.Ad)
	// UnregisterAd removes an ad from the engine's indexes only.
	UnregisterAd(id adstore.AdID)
	// LastQuery returns the record of the last TopAds: its stage spans and
	// answer path.
	LastQuery() Query
}
