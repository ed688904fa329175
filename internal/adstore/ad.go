// Package adstore manages the advertiser side of the system: ads with
// weighted keyword profiles, geographic and time-slot targeting, bids, and
// campaign budgets with smooth pacing.
package adstore

import (
	"errors"
	"fmt"
	"math"
	"time"

	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// AdID identifies an ad.
type AdID int64

// Ad is one advertisement after semantic processing.
type Ad struct {
	ID       AdID
	Campaign string // owning campaign; empty = unbudgeted (always servable)

	// Vec is the L2-normalized keyword profile extracted from the ad copy.
	Vec textproc.SparseVector

	// Target is the geographic target circle. Global ads (no geographic
	// restriction) set Global and leave Target zero.
	Target geo.Circle
	Global bool

	// Slots is the time-of-day targeting mask.
	Slots timeslot.Set

	// Bid is the advertiser's bid per impression, in [0, 1] after
	// normalization by the store's configured maximum bid.
	Bid float64
}

// Validation errors.
var (
	ErrEmptyVec    = errors.New("adstore: ad keyword vector is empty")
	ErrBadBid      = errors.New("adstore: bid must be in (0, 1]")
	ErrBadTarget   = errors.New("adstore: non-global ad needs a positive, finite target radius")
	ErrNoSlots     = errors.New("adstore: ad targets no time slots")
	ErrDuplicateID = errors.New("adstore: duplicate ad ID")
	ErrUnknownAd   = errors.New("adstore: unknown ad")

	ErrUnknownCampaign   = errors.New("adstore: unknown campaign")
	ErrDuplicateCampaign = errors.New("adstore: duplicate campaign")
)

// Validate checks structural invariants of the ad.
func (a *Ad) Validate() error {
	if len(a.Vec) == 0 {
		return fmt.Errorf("ad %d: %w", a.ID, ErrEmptyVec)
	}
	if !(a.Bid > 0 && a.Bid <= 1) { // NaN fails both
		return fmt.Errorf("ad %d: %w (got %v)", a.ID, ErrBadBid, a.Bid)
	}
	if !a.Global {
		if !(a.Target.RadiusKm > 0) || math.IsInf(a.Target.RadiusKm, 1) {
			return fmt.Errorf("ad %d: %w", a.ID, ErrBadTarget)
		}
		if err := a.Target.Center.Validate(); err != nil {
			return fmt.Errorf("ad %d: %w", a.ID, err)
		}
	}
	if a.Slots == 0 {
		return fmt.Errorf("ad %d: %w", a.ID, ErrNoSlots)
	}
	return nil
}

// Place reports whether the ad may be shown to a user at location loc
// (hasLoc false = unknown location) during slot sl and, when it may, its geo
// score (GeoScore), from one distance to the target. Unknown locations match
// only global ads: showing a geo-targeted ad without knowing the user is in
// range wastes the advertiser's budget.
func (a *Ad) Place(loc geo.Point, hasLoc bool, sl timeslot.Slot) (geoScore float64, eligible bool) {
	if !a.Slots.Contains(sl) {
		return 0, false
	}
	if a.Global {
		return 1, true
	}
	if !hasLoc {
		return 0, false
	}
	return a.Target.Locate(loc)
}

// GeoScore returns the spatial proximity component in [0, 1]: 1 for global
// ads (no locality preference), else the linear distance decay inside the
// target circle.
func (a *Ad) GeoScore(loc geo.Point, hasLoc bool) float64 {
	if a.Global {
		return 1
	}
	if !hasLoc {
		return 0
	}
	return a.Target.Proximity(loc)
}

// Campaign tracks one advertiser budget with smooth pacing: spend is capped
// to the fraction of the flight window that has elapsed, so a campaign
// cannot exhaust its whole budget in the first minutes of a flight.
type Campaign struct {
	Name   string
	Budget float64   // total spend allowed over the flight
	Start  time.Time // flight start
	End    time.Time // flight end
	spent  float64
}

// NewCampaign creates a campaign. End must be after Start; Budget positive
// and finite.
func NewCampaign(name string, budget float64, start, end time.Time) (*Campaign, error) {
	if !(budget > 0) || math.IsInf(budget, 1) {
		return nil, fmt.Errorf("adstore: campaign %q budget %v must be positive and finite", name, budget)
	}
	if !end.After(start) {
		return nil, fmt.Errorf("adstore: campaign %q flight end %v not after start %v", name, end, start)
	}
	if err := errors.Join(timeslot.CheckTime(start), timeslot.CheckTime(end)); err != nil {
		return nil, fmt.Errorf("adstore: campaign %q flight: %w", name, err)
	}
	return &Campaign{Name: name, Budget: budget, Start: start, End: end}, nil
}

// Spent returns the amount already spent.
func (c *Campaign) Spent() float64 { return c.spent }

// SetSpent overwrites the spent amount — used when restoring a campaign
// from a snapshot. Amounts outside [0, Budget] are rejected.
func (c *Campaign) SetSpent(amount float64) error {
	if amount < 0 || amount > c.Budget {
		return fmt.Errorf("adstore: restored spend %v outside [0, %v]", amount, c.Budget)
	}
	c.spent = amount
	return nil
}

// allowedAt returns the pacing cap: the budget fraction released by time t.
// Before the flight nothing is released; after the flight everything is.
func (c *Campaign) allowedAt(t time.Time) float64 {
	if !t.After(c.Start) {
		return 0
	}
	if !t.Before(c.End) {
		return c.Budget
	}
	frac := t.Sub(c.Start).Seconds() / c.End.Sub(c.Start).Seconds()
	return c.Budget * frac
}

// CanSpend reports whether an impression costing amount fits both the total
// budget and the pacing cap at time t.
func (c *Campaign) CanSpend(amount float64, t time.Time) bool {
	return c.spent+amount <= c.allowedAt(t)+1e-12
}

// Spend records an impression cost. It returns an error when the spend would
// exceed the pacing cap, leaving the campaign unchanged.
func (c *Campaign) Spend(amount float64, t time.Time) error {
	if amount < 0 {
		return fmt.Errorf("adstore: negative spend %v", amount)
	}
	if !c.CanSpend(amount, t) {
		return fmt.Errorf("adstore: campaign %q pacing cap reached at %v (spent %.4f, cap %.4f)",
			c.Name, t, c.spent, c.allowedAt(t))
	}
	c.spent += amount
	return nil
}
