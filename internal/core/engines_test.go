package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

var (
	region = geo.NewRect(geo.Point{Lat: 0, Lng: 0}, geo.Point{Lat: 10, Lng: 10})
	base0  = time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
)

func testScoring() Scoring {
	return Scoring{
		AlphaText: 0.6,
		BetaGeo:   0.25,
		GammaBid:  0.15,
		Decay:     timeslot.NewDecay(30 * time.Minute),
		WindowCap: 6,
	}
}

// makeEngines builds one of each engine with identical configuration over
// one shared store, as the facade's shards share theirs.
func makeEngines(t *testing.T, s Scoring, store *adstore.Store) []Shardable {
	t.Helper()
	rs, err := NewRS(s, store)
	if err != nil {
		t.Fatal(err)
	}
	il, err := NewIL(s, store, region, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cap1, err := NewCAP(s, store, region, 8, 8, DefaultCAPOptions())
	if err != nil {
		t.Fatal(err)
	}
	capNoShare, err := NewCAP(s, store, region, 8, 8, CAPOptions{FanoutSharing: false, RebuildEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	capNoRebuild, err := NewCAP(s, store, region, 8, 8, CAPOptions{FanoutSharing: true, RebuildEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	return []Shardable{rs, il, cap1, capNoShare, capNoRebuild}
}

func randVec(rng *rand.Rand, nTerms, vocab int) textproc.SparseVector {
	v := textproc.SparseVector{}
	for i := 0; i < nTerms; i++ {
		v[textproc.TermID(rng.Intn(vocab))] = 0.1 + rng.Float64()
	}
	v.L2Normalize()
	return v
}

func randAd(rng *rand.Rand, id adstore.AdID) *adstore.Ad {
	a := &adstore.Ad{
		ID:    id,
		Vec:   randVec(rng, 1+rng.Intn(4), 25),
		Slots: timeslot.AllSlots,
		Bid:   0.05 + 0.95*rng.Float64(),
	}
	switch rng.Intn(3) {
	case 0:
		a.Global = true
	default:
		a.Target = geo.Circle{
			Center:   geo.Point{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10},
			RadiusKm: 30 + rng.Float64()*400,
		}
	}
	if rng.Intn(4) == 0 {
		a.Slots = timeslot.NewSet(timeslot.Morning, timeslot.Afternoon)
	}
	return a
}

// scoresCompatible verifies an engine's result against the oracle (RS)
// result: same length, pairwise-equal scores within tolerance (membership
// may differ only between score ties).
func scoresCompatible(oracle, got []Scored, tol float64) error {
	if len(oracle) != len(got) {
		return fmt.Errorf("length %d != oracle %d", len(got), len(oracle))
	}
	for i := range oracle {
		if math.Abs(oracle[i].Score-got[i].Score) > tol {
			return fmt.Errorf("rank %d: score %v != oracle %v", i, got[i].Score, oracle[i].Score)
		}
		// When scores are NOT tied with neighbours, membership must agree.
		tied := (i > 0 && math.Abs(oracle[i-1].Score-oracle[i].Score) <= tol) ||
			(i+1 < len(oracle) && math.Abs(oracle[i+1].Score-oracle[i].Score) <= tol)
		if !tied && oracle[i].Ad != got[i].Ad {
			return fmt.Errorf("rank %d: ad %d != oracle %d (scores %v vs %v)",
				i, got[i].Ad, oracle[i].Ad, got[i].Score, oracle[i].Score)
		}
	}
	return nil
}

// TestEngineEquivalenceRandomWorkload is the central correctness test: RS,
// IL, and CAP (in three option variants) must produce identical top-k
// rankings throughout a randomized stream of posts, check-ins, ad
// insertions, and ad removals. Half the users are read at every gap a
// readGaps cycles through, so each CAP variant catches its lazy buffers up
// in every regime; the rest are read at random, mostly cold. Twice the clock
// jumps by 1 200 half-lives, which ages every resident message to a weight
// of exactly zero (2^-1200 underflows): windows, buffers and views must all
// come out of that exact.
func TestEngineEquivalenceRandomWorkload(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := adstore.NewStore()
			engines := makeEngines(t, testScoring(), store)
			oracle := engines[0]

			const nUsers = 12
			gaps := newReadGaps(testScoring().WindowCap)
			var caps []*CAP
			for _, e := range engines {
				if c, ok := e.(*CAP); ok {
					caps = append(caps, c)
				}
			}
			for u := feed.UserID(0); u < nUsers; u++ {
				for _, e := range engines {
					e.AddUser(u)
				}
			}
			nextAd := adstore.AdID(1)
			var liveAds []adstore.AdID
			addAd := func() {
				a := randAd(rng, nextAd)
				if err := store.Add(a); err != nil {
					t.Fatal(err)
				}
				for _, e := range engines {
					e.RegisterAd(a)
				}
				liveAds = append(liveAds, nextAd)
				nextAd++
			}
			for i := 0; i < 40; i++ {
				addAd()
			}

			now := base0
			// read compares every engine's top k for u with the oracle's.
			read := func(step int, u feed.UserID, k int) {
				gaps.observe(t, u, func() {
					want, err := oracle.TopAds(u, k, now)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range engines[1:] {
						got, err := e.TopAds(u, k, now)
						if err != nil {
							t.Fatalf("%T TopAds: %v", e, err)
						}
						if err := scoresCompatible(want, got, 1e-6); err != nil {
							t.Fatalf("step %d user %d k %d: %T disagrees with RS: %v\nRS:  %+v\n%T: %+v",
								step, u, k, e, err, want, e, got)
						}
					}
				}, caps...)
			}
			var msgID feed.MessageID
			for step := 0; step < 1200; step++ {
				now = now.Add(time.Duration(rng.Intn(180)) * time.Second)
				if step%400 == 399 { // idle gap: 1 200 of testScoring's half-lives
					now = now.Add(1200 * 30 * time.Minute)
				}
				switch op := rng.Intn(10); {
				case op < 6: // post
					msgID++
					author := feed.UserID(rng.Intn(nUsers))
					nFollow := 1 + rng.Intn(5)
					followers := make([]feed.UserID, 0, nFollow)
					seen := map[feed.UserID]bool{}
					for len(followers) < nFollow {
						f := feed.UserID(rng.Intn(nUsers))
						if !seen[f] {
							seen[f] = true
							followers = append(followers, f)
						}
					}
					msg := feed.Message{
						ID:     msgID,
						Author: author,
						Time:   now.Add(-time.Duration(rng.Intn(30)) * time.Second),
						Vec:    randVec(rng, 1+rng.Intn(5), 25),
					}
					for _, e := range engines {
						if err := e.Deliver(msg, followers); err != nil {
							t.Fatalf("%T Deliver: %v", e, err)
						}
					}
					gaps.delivered(followers)
					for _, u := range followers {
						for u < nUsers/2 && gaps.due(u) {
							read(step, u, 1+rng.Intn(8))
						}
					}
				case op < 8: // check-in
					u := feed.UserID(rng.Intn(nUsers))
					p := geo.Point{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10}
					for _, e := range engines {
						if err := e.CheckIn(u, p, now); err != nil {
							t.Fatalf("%T CheckIn: %v", e, err)
						}
					}
					gaps.churned()
				case op == 8: // add ad mid-stream
					addAd()
					gaps.churned()
				default: // remove a random ad
					if len(liveAds) > 5 {
						i := rng.Intn(len(liveAds))
						id := liveAds[i]
						liveAds = append(liveAds[:i], liveAds[i+1:]...)
						if err := store.Remove(id); err != nil {
							t.Fatal(err)
						}
						for _, e := range engines {
							e.UnregisterAd(id)
						}
						gaps.churned()
					}
				}

				if step%5 == 0 {
					read(step, feed.UserID(rng.Intn(nUsers)), 1+rng.Intn(8))
				}
			}
			gaps.require(t)
		})
	}
}

// TestAggregateIsSummedIntoReusedVector: the readers of a window's aggregate
// — RS and IL on every query, CAP when it rebuilds a buffer — sum it into a
// vector the engine keeps. Measured on one engine before and after its window
// grows from one one-term message to a full window of five-term ones, what
// such a reader allocates stays the same; an aggregate map made per call
// would allocate more for the larger one.
func TestAggregateIsSummedIntoReusedVector(t *testing.T) {
	s := testScoring()
	store := adstore.NewStore()
	engines := makeEngines(t, s, store)[:3] // RS, IL, CAP
	for id := adstore.AdID(1); id <= 50; id++ {
		a := simpleAd(id, textproc.TermID(id%25), 0.5)
		if err := store.Add(a); err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			e.RegisterAd(a)
		}
	}
	rng := rand.New(rand.NewSource(3))
	now, id := base0, feed.MessageID(0)
	deliver := func(vec textproc.SparseVector) {
		id++
		now = now.Add(time.Second)
		for _, e := range engines {
			e.AddUser(1)
			if err := e.Deliver(feed.Message{ID: id, Time: now, Vec: vec}, []feed.UserID{1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := func(e Shardable) float64 {
		if c, ok := e.(*CAP); ok {
			st := c.users[1]
			return testing.AllocsPerRun(20, func() { c.rebuild(st, st.buf) })
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.TopAds(1, 5, now); err != nil {
				t.Fatal(err)
			}
		})
	}
	deliver(textproc.SparseVector{7: 1})
	before := make([]float64, len(engines))
	for i, e := range engines {
		before[i] = allocs(e)
	}
	for range s.WindowCap {
		deliver(randVec(rng, 5, 25))
	}
	for i, e := range engines {
		after := allocs(e)
		if after != before[i] {
			t.Errorf("%T: %v allocations with a full window, %v with one message", e, after, before[i])
		}
		if _, ok := e.(*CAP); ok && after > 1 {
			t.Errorf("a CAP rebuild allocates %v times, want at most once: the delta list", after)
		}
	}
}

func TestUnknownUserErrors(t *testing.T) {
	for _, e := range makeEngines(t, testScoring(), nil) {
		if _, err := e.TopAds(99, 5, base0); !errors.Is(err, ErrUnknownUser) {
			t.Errorf("%T TopAds unknown user = %v", e, err)
		}
		if err := e.CheckIn(99, geo.Point{Lat: 5, Lng: 5}, base0); !errors.Is(err, ErrUnknownUser) {
			t.Errorf("%T CheckIn unknown user = %v", e, err)
		}
		msg := feed.Message{ID: 1, Time: base0, Vec: textproc.SparseVector{1: 1}}
		if err := e.Deliver(msg, []feed.UserID{99}); !errors.Is(err, ErrUnknownUser) {
			t.Errorf("%T Deliver unknown follower = %v", e, err)
		}
		// All or nothing, in every engine: an unknown follower in last
		// position fails the delivery before any window is pushed to.
		e.AddUser(1)
		e.AddUser(2)
		if err := e.Deliver(msg, []feed.UserID{1, 2, 99}); !errors.Is(err, ErrUnknownUser) {
			t.Errorf("%T Deliver with an unknown last follower = %v", e, err)
		}
		if _, entries := e.(interface{ WindowStats() (int, int) }).WindowStats(); entries != 0 {
			t.Errorf("%T: %d window entries after a failed delivery, want none", e, entries)
		}
	}
}

func TestCheckInOutsideRegionRejected(t *testing.T) {
	il, _ := NewIL(testScoring(), nil, region, 8, 8)
	il.AddUser(1)
	if err := il.CheckIn(1, geo.Point{Lat: 50, Lng: 50}, base0); err == nil {
		t.Fatal("out-of-region check-in accepted")
	}
	cp, _ := NewCAP(testScoring(), nil, region, 8, 8, DefaultCAPOptions())
	cp.AddUser(1)
	if err := cp.CheckIn(1, geo.Point{Lat: -5, Lng: 5}, base0); err == nil {
		t.Fatal("out-of-region check-in accepted by CAP")
	}
}

func TestScoringValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scoring)
		ok   bool
	}{
		{"default", func(s *Scoring) {}, true},
		{"negative alpha", func(s *Scoring) { s.AlphaText = -1 }, false},
		{"all zero", func(s *Scoring) { s.AlphaText, s.BetaGeo, s.GammaBid = 0, 0, 0 }, false},
		{"zero window", func(s *Scoring) { s.WindowCap = 0 }, false},
		{"text only", func(s *Scoring) { s.BetaGeo, s.GammaBid = 0, 0 }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := DefaultScoring()
			c.mut(&s)
			err := s.Validate()
			if c.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.ok && !errors.Is(err, ErrBadScoring) {
				t.Fatalf("want ErrBadScoring, got %v", err)
			}
		})
	}
}

func TestNewEngineRejectsBadScoring(t *testing.T) {
	bad := Scoring{WindowCap: 0}
	if _, err := NewRS(bad, nil); err == nil {
		t.Fatal("RS accepted bad scoring")
	}
	if _, err := NewIL(bad, nil, region, 8, 8); err == nil {
		t.Fatal("IL accepted bad scoring")
	}
	if _, err := NewCAP(bad, nil, region, 8, 8, DefaultCAPOptions()); err == nil {
		t.Fatal("CAP accepted bad scoring")
	}
}
