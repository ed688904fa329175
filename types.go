// Package caar is a context-aware advertisement recommender for high-speed
// social news feeds — an open reconstruction of the system described in
// "Context-aware Advertisement Recommendation for High-speed Social News
// Feeding" (ICDE 2016). See DESIGN.md for the reconstruction notes.
//
// The engine ingests a stream of social events — posts fanning out along a
// follower graph, and user check-ins — and continuously knows, for every
// user, the top-k advertisements most relevant to the user's current
// context: what they are reading now (a decayed window over their feed),
// where they are, and what time of day it is. Three interchangeable
// algorithms are provided: the incremental CAP engine (the paper's
// contribution, default), and the RS and IL baselines used in the
// evaluation.
//
// Basic use:
//
//	eng, _ := caar.Open(caar.DefaultConfig())
//	eng.AddUser("alice")
//	eng.AddUser("bob")
//	eng.Follow("alice", "bob")
//	eng.AddAd(caar.Ad{ID: "sneaker-sale", Text: "running shoes sale", Bid: 0.4})
//	eng.Post("bob", "morning run, new shoes day", time.Now())
//	recs, _ := eng.Recommend("alice", 3, time.Now())
package caar

import (
	"time"

	"caar/internal/timeslot"
)

// Algorithm selects the recommendation engine.
type Algorithm string

// Available algorithms.
const (
	// AlgorithmCAP is the incremental Context-aware Ad Publishing engine —
	// the paper's contribution and the default.
	AlgorithmCAP Algorithm = "CAP"
	// AlgorithmIL is the inverted-list baseline: exact per-query index
	// evaluation with no incremental reuse.
	AlgorithmIL Algorithm = "IL"
	// AlgorithmRS is the exhaustive re-scan baseline.
	AlgorithmRS Algorithm = "RS"
)

// Slot is a coarse time-of-day bucket for ad targeting.
type Slot string

// Available slots. The partition mirrors the evaluation's two reported
// windows (morning [05:00,13:00), afternoon [13:00,20:00)) plus night.
const (
	Night     Slot = "night"
	Morning   Slot = "morning"
	Afternoon Slot = "afternoon"
)

// SlotOf returns the slot containing t.
func SlotOf(t time.Time) Slot {
	switch timeslot.Of(t) {
	case timeslot.Morning:
		return Morning
	case timeslot.Afternoon:
		return Afternoon
	default:
		return Night
	}
}

func (s Slot) internal() (timeslot.Slot, bool) {
	switch s {
	case Night:
		return timeslot.Night, true
	case Morning:
		return timeslot.Morning, true
	case Afternoon:
		return timeslot.Afternoon, true
	default:
		return 0, false
	}
}

// Region is the geographic coverage rectangle of the engine's spatial index.
// Users must check in inside the region; ads may target circles overlapping
// it.
type Region struct {
	MinLat, MinLng float64
	MaxLat, MaxLng float64
}

// Target is an ad's geographic target: a circle around a point. A nil
// *Target on an Ad means global targeting.
type Target struct {
	Lat, Lng float64
	RadiusKm float64
}

// Ad is one advertisement as submitted by an advertiser.
type Ad struct {
	// ID is the advertiser-assigned unique identifier.
	ID string
	// Text is the ad copy; its keywords are extracted with the same text
	// pipeline applied to posts.
	Text string
	// Campaign optionally names a budgeted campaign created with
	// AddCampaign. Empty means unbudgeted (always servable).
	Campaign string
	// Target restricts the ad geographically; nil means global.
	Target *Target
	// Slots restricts the ad to time-of-day slots; empty means all slots.
	Slots []Slot
	// Bid is the advertiser's per-impression bid in (0, 1].
	Bid float64
}

// PostRequest is one post in a PostBatch call: the batched form of the
// Post(author, text, at) argument list. The asynchronous ingest pipeline
// buffers these between accept and apply.
type PostRequest struct {
	Author string
	Text   string
	At     time.Time
}

// CheckInRequest is one location update in a CheckInBatch call: the batched
// form of the CheckIn(user, lat, lng, at) argument list.
type CheckInRequest struct {
	User string
	Lat  float64
	Lng  float64
	At   time.Time
}

// Recommendation is one ranked ad for a user, with the score decomposition.
type Recommendation struct {
	AdID  string
	Score float64
	Text  float64 // textual-relevance component
	Geo   float64 // geographic-proximity component
	Bid   float64 // bid component
}

// Stats is a snapshot of engine state for monitoring.
type Stats struct {
	Users          int
	Ads            int
	FollowEdges    int
	PostsDelivered uint64
	CheckIns       uint64
	Shards         int
	// CandidateBufferEntries is the total CAP candidate-buffer size across
	// users as materialised (0 for other algorithms): a feed nobody has read
	// for a window's worth of deliveries holds no buffer.
	CandidateBufferEntries int
	// CachedMessages is the number of messages whose shared delta list some
	// read user's buffer may still need (CAP with fan-out sharing only).
	CachedMessages int
}
