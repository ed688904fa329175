package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
	"caar/internal/topk"
)

// TestContinuousTopAdsMatchesRSAfterEveryDelivery is the exactness oracle of
// the top-k view: after every delivery, for each follower it reached, TopAds
// must be the RS ranking at the message's time. The stream mixes everything
// that moves a score or eligibility — posts (one in ten stamped out of
// order), check-ins, ads arriving and leaving, time-slot boundaries (the
// stream spans days), and campaign ads that run out of paced budget through
// the impressions charged here and come back as the flight releases more.
// Between the deliveries come the feed renders: pull reads of a random user
// at a random k in 1..20 and a random time — mostly a little after the last
// delivery, some a slot ahead, a few in the past — each compared with RS
// too. Who is refreshed after a delivery decides how far behind its window a
// candidate buffer is when it is read: the first six users after every one
// (subscribed), the next three at every gap a readGaps cycles through, the
// last three never, only rendered. The run must show every regime of the lazy
// buffer (readGaps.require), with the churn landing while buffers are behind;
// take the view path and the re-rank path and answer from a view at a k other
// than the one that sized it; and ad churn must show each of its rules at
// work: a view that stands through a register and one through an unregister,
// a registered ad noted and then served from the view, and a view dropped
// because it tracked the ad withdrawn.
func TestContinuousTopAdsMatchesRSAfterEveryDelivery(t *testing.T) {
	const (
		nUsers = 12
		steps  = 4000
	)
	for i, seed := range []int64{1, 2, 3, 7, 42, 1709} {
		opts := DefaultCAPOptions()
		if i%2 == 1 {
			opts = CAPOptions{FanoutSharing: false, RebuildEvery: 32}
		}
		k := []int{1, 3, 5}[i%3]
		t.Run(fmt.Sprintf("seed%d_k%d", seed, k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := adstore.NewStore()
			for c := 0; c < 3; c++ {
				// ~100 h stream, bids ~0.5: each flight releases about one
				// impression every two hours, so its ads are out of budget
				// most of the time and return between charges.
				camp, err := adstore.NewCampaign(fmt.Sprintf("c%d", c), 25, base0, base0.Add(100*time.Hour))
				if err != nil {
					t.Fatal(err)
				}
				if err := store.AddCampaign(camp); err != nil {
					t.Fatal(err)
				}
			}
			rs, err := NewRS(testScoring(), store)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewCAP(testScoring(), store, region, 8, 8, opts)
			if err != nil {
				t.Fatal(err)
			}
			for u := feed.UserID(0); u < nUsers; u++ {
				rs.AddUser(u)
				eng.AddUser(u)
			}
			gaps := newReadGaps(testScoring().WindowCap)
			nextAd := adstore.AdID(1)
			var liveAds []adstore.AdID
			var survivedRegister, survivedUnregister, notedServed, droppedTracker int
			// notedNew is, per user, the ads a register put on the view's noted
			// list since the user's last query.
			notedNew := make(map[feed.UserID][]adstore.AdID)
			views := func() []*topView {
				vs := make([]*topView, nUsers)
				for u := range vs {
					vs[u] = eng.users[feed.UserID(u)].buf.view
				}
				return vs
			}
			addAd := func() {
				a := randAd(rng, nextAd)
				if rng.Intn(4) == 0 {
					a.Campaign = fmt.Sprintf("c%d", rng.Intn(3))
				}
				if err := store.Add(a); err != nil {
					t.Fatal(err)
				}
				before := views()
				eng.RegisterAd(a)
				gaps.churned()
				for u, v := range views() {
					if v == nil || v != before[u] {
						continue
					}
					survivedRegister++
					if n := len(v.noted); n > 0 && v.noted[n-1] == a.ID {
						notedNew[feed.UserID(u)] = append(notedNew[feed.UserID(u)], a.ID)
					}
				}
				liveAds = append(liveAds, nextAd)
				nextAd++
			}
			for i := 0; i < 120; i++ {
				addAd()
			}

			check := func(step int, u feed.UserID, k int, at time.Time) []Scored {
				want, err := rs.TopAds(u, k, at)
				if err != nil {
					t.Fatal(err)
				}
				fromView := eng.viewAnswers
				var got []Scored
				gaps.observe(t, u, func() { got, err = eng.TopAds(u, k, at) }, eng)
				if err != nil {
					t.Fatal(err)
				}
				if err := scoresCompatible(want, got, 1e-9); err != nil {
					t.Fatalf("step %d user %d k %d at %v: TopAds is not the RS ranking: %v\nRS:  %+v\nCAP: %+v",
						step, u, k, at, err, want, got)
				}
				if eng.viewAnswers > fromView {
					for _, sc := range got {
						if slices.Contains(notedNew[u], sc.Ad) {
							notedServed++
						}
					}
				}
				delete(notedNew, u)
				return got
			}
			now := base0
			var msgID feed.MessageID
			var otherK int
			for step := 0; step < steps; step++ {
				now = now.Add(time.Duration(rng.Intn(180)) * time.Second)
				// A feed render; the never-refreshed users are read a quarter as often.
				if u := feed.UserID(rng.Intn(nUsers)); rng.Intn(2) == 0 && (u < nUsers-3 || rng.Intn(4) == 0) {
					readK, at := 1+rng.Intn(20), now.Add(time.Duration(rng.Intn(30))*time.Second)
					switch rng.Intn(10) {
					case 0:
						at = now.Add(-time.Duration(rng.Intn(1200)) * time.Second)
					case 1, 2:
						at = at.Add(6 * time.Hour)
					}
					v, fromView := eng.users[u].buf.view, eng.viewAnswers
					check(step, u, readK, at)
					if eng.viewAnswers > fromView && v.size != viewSlack*readK {
						otherK++
					}
				}
				switch op := rng.Intn(20); {
				case op < 14: // post
					msgID++
					followers := make([]feed.UserID, 0, 5)
					for _, f := range rng.Perm(nUsers)[:1+rng.Intn(5)] {
						followers = append(followers, feed.UserID(f))
					}
					msg := feed.Message{ID: msgID, Time: now, Vec: randVec(rng, 1+rng.Intn(5), 25)}
					if rng.Intn(10) == 0 {
						msg.Time = now.Add(-time.Duration(1+rng.Intn(1200)) * time.Second)
					}
					if err := rs.Deliver(msg, followers); err != nil {
						t.Fatal(err)
					}
					if err := eng.Deliver(msg, followers); err != nil {
						t.Fatal(err)
					}
					gaps.delivered(followers)
					for _, u := range followers {
						for u < nUsers-3 && (u < nUsers-6 || gaps.due(u)) {
							got := check(step, u, k, msg.Time)
							// Serve the best ad: campaigns spend down and pace back.
							if len(got) > 0 {
								if _, err := store.ChargeImpression(got[0].Ad, msg.Time); err != nil {
									t.Fatal(err)
								}
							}
							if u < nUsers-6 {
								break
							}
						}
					}
				case op < 17: // check-in
					u := feed.UserID(rng.Intn(nUsers))
					p := geo.Point{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10}
					if err := rs.CheckIn(u, p, now); err != nil {
						t.Fatal(err)
					}
					if err := eng.CheckIn(u, p, now); err != nil {
						t.Fatal(err)
					}
					gaps.churned()
				case op == 17: // a new ad
					addAd()
				case op == 18 && len(liveAds) > 60: // an ad withdrawn
					i := rng.Intn(len(liveAds))
					id := liveAds[i]
					liveAds = append(liveAds[:i], liveAds[i+1:]...)
					if err := store.Remove(id); err != nil {
						t.Fatal(err)
					}
					before := views()
					eng.UnregisterAd(id)
					gaps.churned()
					for u, v := range views() {
						switch old := before[u]; {
						case old == nil:
						case old.tracks(id):
							if v != nil {
								t.Fatalf("step %d: user %d's view tracks ad %d and outlived its withdrawal", step, u, id)
							}
							droppedTracker++
						case v == old:
							survivedUnregister++
						}
					}
				}
			}
			view, rerank := eng.TopAdsPaths()
			gaps.require(t)
			t.Logf("%d answers from the view (%d at another k than sized it), %d re-ranked (%.0f%%)",
				view, otherK, rerank, 100*float64(rerank)/float64(view+rerank))
			t.Logf("views that stood through a register: %d, through an unregister: %d; registered ads noted and then served from the view: %d; views dropped with a tracked ad: %d",
				survivedRegister, survivedUnregister, notedServed, droppedTracker)
			if view == 0 || rerank == 0 || otherK == 0 ||
				survivedRegister == 0 || survivedUnregister == 0 || notedServed == 0 || droppedTracker == 0 {
				t.Fatal("every one of those seven must occur")
			}
		})
	}
}

// viewFixture is a CAP with one user and a handful of global ads, for the
// invalidation tests: each builds a view, applies one event that the delta
// lists do not carry, and requires TopAds to still be what a full ranking
// says.
func viewFixture(t *testing.T, opts CAPOptions) *CAP {
	t.Helper()
	e := newTestCAP(t, opts)
	e.AddUser(1)
	// Five static-heavy ads on term 1: with k = 1 the view tracks four of
	// them and its bound is the fourth's score.
	for id := adstore.AdID(1); id <= 5; id++ {
		if err := e.AddAd(simpleAd(id, 1, 1-0.1*float64(id))); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func deliver(t *testing.T, e *CAP, id feed.MessageID, at time.Time, vec textproc.SparseVector) {
	t.Helper()
	if err := e.Deliver(feed.Message{ID: id, Time: at, Vec: vec}, []feed.UserID{1}); err != nil {
		t.Fatal(err)
	}
}

// sameAsFullRanking requires TopAds to return exactly the budget-aware
// ranking of the whole candidate set, made here — the buffer caught up first,
// as any reader does — with the engine's own scoring but without reading or
// writing the view.
func sameAsFullRanking(t *testing.T, e *CAP, k int, at time.Time) []Scored {
	t.Helper()
	st, buf := e.users[1], e.users[1].buf
	e.catchUp(st, buf)
	mult := buf.scale * e.scoring.Decay.Between(st.win.Ref(), at)
	c := topk.NewCollector(k)
	e.rank(c, st, buf, mult, timeslot.Of(at), at, true)
	want := e.resolve(c.Items(), st, func(id adstore.AdID) float64 { return buf.get(id) * mult })

	view0, _ := e.TopAdsPaths()
	got, err := e.TopAds(1, k, at)
	if err != nil {
		t.Fatal(err)
	}
	// The query record describes this TopAds, whichever path answered it.
	q, path := e.LastQuery(), "rerank"
	if view, _ := e.TopAdsPaths(); view > view0 {
		path = "view"
	}
	if q.Path != path || q.Stages[StageTopK].Out != len(got) {
		t.Fatalf("query record %+v after a %s answer of %d ads", q, path, len(got))
	}
	if len(got) != len(want) {
		t.Fatalf("TopAds %+v, full ranking %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: TopAds %+v, full ranking %+v", i, got[i], want[i])
		}
	}
	return got
}

// wantPath pins how the TopAds calls so far were answered (the full ranking
// sameAsFullRanking compares with is not one of them).
func wantPath(t *testing.T, e *CAP, wantView, wantRerank uint64) {
	t.Helper()
	if view, rerank := e.TopAdsPaths(); view != wantView || rerank != wantRerank {
		t.Fatalf("TopAds: %d from the view and %d re-ranked, want %d and %d", view, rerank, wantView, wantRerank)
	}
}

func TestViewAnswersUntilADeliveryRaisesAnOutsider(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	e.AddAd(simpleAd(9, 2, 0.1)) // text-only outsider
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	sameAsFullRanking(t, e, 1, base0)
	wantPath(t, e, 0, 1) // the first query builds the view

	// A message that moves nothing near the top: answered from the view.
	deliver(t, e, 2, base0.Add(time.Minute), textproc.SparseVector{2: 0.01})
	sameAsFullRanking(t, e, 1, base0.Add(time.Minute))
	wantPath(t, e, 1, 1)

	// A message that lifts the outsider past everything tracked: the view
	// notes it, scores it, and still answers.
	deliver(t, e, 3, base0.Add(2*time.Minute), textproc.SparseVector{2: 5})
	if top := sameAsFullRanking(t, e, 1, base0.Add(2*time.Minute)); top[0].Ad != 9 {
		t.Fatalf("top ad %d, want the raised outsider 9", top[0].Ad)
	}
	wantPath(t, e, 2, 1)
}

func TestViewDroppedByCheckIn(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	// Eligible only near (9, 9); the user starts at (1, 1).
	if err := e.AddAd(&adstore.Ad{
		ID: 9, Vec: textproc.SparseVector{1: 1}, Slots: timeslot.AllSlots, Bid: 1,
		Target: geo.Circle{Center: geo.Point{Lat: 9, Lng: 9}, RadiusKm: 50},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckIn(1, geo.Point{Lat: 1, Lng: 1}, base0); err != nil {
		t.Fatal(err)
	}
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	sameAsFullRanking(t, e, 1, base0)

	if err := e.CheckIn(1, geo.Point{Lat: 9, Lng: 9}, base0); err != nil {
		t.Fatal(err)
	}
	if top := sameAsFullRanking(t, e, 1, base0); top[0].Ad != 9 {
		t.Fatalf("top ad %d after moving into ad 9's circle, want 9", top[0].Ad)
	}
}

// TestViewNotesARegisteredAd: an ad registered at a score that could reach
// the bound is noted, and the next query — still from the view — scores and
// serves it; one registered below the bound leaves the view alone.
func TestViewNotesARegisteredAd(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	sameAsFullRanking(t, e, 1, base0)
	v := e.users[1].buf.view

	if err := e.AddAd(simpleAd(8, 2, 0.01)); err != nil { // no text match, lowest bid
		t.Fatal(err)
	}
	if e.users[1].buf.view != v || len(v.noted) != 0 {
		t.Fatalf("an ad under the bound was noted (%v) or cost the view", v.noted)
	}
	// Back-filled from the window at a higher score than anything tracked.
	if err := e.AddAd(simpleAd(9, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if top := sameAsFullRanking(t, e, 1, base0); top[0].Ad != 9 {
		t.Fatalf("top ad %d, want the new ad 9", top[0].Ad)
	}
	wantPath(t, e, 1, 1)
}

// TestViewOfAnEmptyWindowNotesARegisteredAd: registration skips the dot
// product for a user who has received nothing, not the note — that user's view
// ranks by static score, which a new ad can lead.
func TestViewOfAnEmptyWindowNotesARegisteredAd(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	sameAsFullRanking(t, e, 1, base0)
	if err := e.AddAd(simpleAd(9, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if top := sameAsFullRanking(t, e, 1, base0); top[0].Ad != 9 {
		t.Fatalf("top ad %d, want the new ad 9", top[0].Ad)
	}
	wantPath(t, e, 1, 1)
}

// TestViewWithoutABoundNotesEveryRegisteredAd: a view that tracks every
// eligible ad promises exactly that, so a new ad joins however low it scores.
func TestViewWithoutABoundNotesEveryRegisteredAd(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	for id := adstore.AdID(1); id <= 3; id++ {
		e.AddAd(simpleAd(id, 1, 1-0.1*float64(id)))
	}
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	sameAsFullRanking(t, e, 4, base0)
	if err := e.AddAd(simpleAd(9, 2, 0.01)); err != nil {
		t.Fatal(err)
	}
	if top := sameAsFullRanking(t, e, 4, base0); len(top) != 4 || top[3].Ad != 9 {
		t.Fatalf("answer %+v, want all four ads with the new ad 9 last", top)
	}
	wantPath(t, e, 1, 1)
}

// TestViewDroppedByAdRemoval: withdrawing an ad the view does
// not track changes nothing the view holds; withdrawing a tracked one would
// leave its record in the answer, so that view goes.
func TestViewDroppedByAdRemoval(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	// No ad carries term 3: the ranking is by bid alone, so the ad about
	// to go leads without any help from the buffer.
	deliver(t, e, 1, base0, textproc.SparseVector{3: 1})
	if top := sameAsFullRanking(t, e, 1, base0); top[0].Ad != 1 {
		t.Fatalf("top ad %d, want 1", top[0].Ad)
	}
	v := e.users[1].buf.view
	if v.tracks(5) || !v.tracks(1) {
		t.Fatal("the scenario needs ad 1 tracked and ad 5 not")
	}
	if err := e.RemoveAd(5); err != nil {
		t.Fatal(err)
	}
	if e.users[1].buf.view != v {
		t.Fatal("withdrawing an untracked ad cost the view")
	}
	sameAsFullRanking(t, e, 1, base0)
	wantPath(t, e, 1, 1)

	if err := e.RemoveAd(1); err != nil {
		t.Fatal(err)
	}
	if top := sameAsFullRanking(t, e, 1, base0); top[0].Ad != 2 {
		t.Fatalf("top ad %d after ad 1 was withdrawn, want 2", top[0].Ad)
	}
	wantPath(t, e, 1, 2)
}

func TestViewDroppedBySlotChange(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	afternoon := simpleAd(9, 1, 0.95)
	afternoon.Slots = timeslot.NewSet(timeslot.Afternoon)
	e.AddAd(afternoon)
	morningOnly := simpleAd(10, 1, 1)
	morningOnly.Slots = timeslot.NewSet(timeslot.Morning)
	e.AddAd(morningOnly)

	at := base0.Add(4*time.Hour + 50*time.Minute) // 12:50, morning
	deliver(t, e, 1, at, textproc.SparseVector{1: 1})
	if top := sameAsFullRanking(t, e, 1, at); top[0].Ad != 10 {
		t.Fatalf("morning top ad %d, want the morning-only ad 10", top[0].Ad)
	}
	// 13:10, afternoon. The message lifts every ad alike, which keeps the
	// morning's tracked set well above its bound.
	at = at.Add(20 * time.Minute)
	deliver(t, e, 2, at, textproc.SparseVector{1: 1})
	if top := sameAsFullRanking(t, e, 1, at); top[0].Ad != 9 {
		t.Fatalf("afternoon top ad %d, want the afternoon-only ad 9", top[0].Ad)
	}
}

// TestViewNotUsedBeforeWindowReference: a query older than the window's
// newest message scales every text score up (winFactor > 1), beyond what
// the reference-space noted test allowed for.
func TestViewNotUsedBeforeWindowReference(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	e.AddAd(simpleAd(9, 2, 0.1)) // text-only outsider
	ref := base0.Add(time.Hour)
	deliver(t, e, 1, ref, textproc.SparseVector{1: 1})
	// Built for a query an hour before the reference (two half-lives: ×4).
	sameAsFullRanking(t, e, 1, base0)

	// Half an hour out of order. In reference space the outsider's raised
	// score stays under the bound, so it is not noted; at the message's own
	// time it is twice that and leads.
	at := base0.Add(30 * time.Minute)
	deliver(t, e, 2, at, textproc.SparseVector{1: 3, 2: 6.5})
	if len(e.users[1].buf.view.noted) != 0 {
		t.Fatalf("the scenario needs the outsider to go unnoted, noted %v", e.users[1].buf.view.noted)
	}
	if top := sameAsFullRanking(t, e, 1, at); top[0].Ad != 9 {
		t.Fatalf("top ad %d, want the outsider 9", top[0].Ad)
	}
}

// TestViewNotUsedBeforeItsOwnTime: the bound was taken at the build's query
// time; an earlier query sees every untracked text score higher than that.
func TestViewNotUsedBeforeItsOwnTime(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	e.AddAd(simpleAd(9, 2, 0.1)) // text-only outsider
	deliver(t, e, 1, base0, textproc.SparseVector{2: 0.4})
	// An hour ahead the outsider's text is a quarter and it sits under the
	// static-heavy five; now it leads.
	sameAsFullRanking(t, e, 1, base0.Add(time.Hour))
	if top := sameAsFullRanking(t, e, 1, base0); top[0].Ad != 9 {
		t.Fatalf("top ad %d, want the outsider 9", top[0].Ad)
	}
}

func TestViewDroppedByExactRebuild(t *testing.T) {
	// The first delivery finds no buffer and the read after it builds one, so
	// the count to 2 starts with the second.
	e := viewFixture(t, CAPOptions{FanoutSharing: true, RebuildEvery: 2})
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	sameAsFullRanking(t, e, 1, base0)
	deliver(t, e, 2, base0, textproc.SparseVector{3: 1})
	sameAsFullRanking(t, e, 1, base0)
	wantPath(t, e, 1, 1)
	deliver(t, e, 3, base0, textproc.SparseVector{3: 1}) // third update: rebuilt
	sameAsFullRanking(t, e, 1, base0)
	wantPath(t, e, 1, 2)
}

func TestViewDroppedByRenormalization(t *testing.T) {
	// Three ads: the view tracks every eligible ad (no bound to fall under),
	// so only the invalidation can send the last refresh to a ranking.
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	for id := adstore.AdID(1); id <= 3; id++ {
		e.AddAd(simpleAd(id, 1, 1-0.1*float64(id)))
	}
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	sameAsFullRanking(t, e, 1, base0)
	deliver(t, e, 2, base0.Add(time.Minute), textproc.SparseVector{3: 1})
	sameAsFullRanking(t, e, 1, base0.Add(time.Minute))
	wantPath(t, e, 1, 1)

	// Eleven idle days at a 30-minute half-life age the buffer by e^-366:
	// under the 1e-150 floor, short of the flush to zero.
	later := base0.Add(11 * 24 * time.Hour)
	deliver(t, e, 3, later, textproc.SparseVector{3: 1})
	e.BufferSize(1)
	if e.users[1].buf.scale != 1 || len(e.users[1].buf.e) == 0 {
		t.Fatalf("scale %v with %d entries: the scenario needs a renormalized, non-empty buffer", e.users[1].buf.scale, len(e.users[1].buf.e))
	}
	sameAsFullRanking(t, e, 1, later)
	wantPath(t, e, 1, 2)
}

// budgetFixture has six ads on term 1, best bid first, the first budgeted of
// them in a campaign that one impression exhausts half an hour in.
func budgetFixture(t *testing.T, budgeted int) (*CAP, *adstore.Store) {
	t.Helper()
	store := adstore.NewStore()
	camp, err := adstore.NewCampaign("c", 2.0, base0, base0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	store.AddCampaign(camp)
	e, err := NewCAP(testScoring(), store, region, 8, 8, DefaultCAPOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.AddUser(1)
	for id := adstore.AdID(1); id <= 6; id++ {
		a := simpleAd(id, 1, 1-0.1*float64(id))
		if int(id) <= budgeted {
			a.Campaign = "c"
		}
		if err := e.AddAd(a); err != nil {
			t.Fatal(err)
		}
	}
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	return e, store
}

// TestViewSkipsExhaustedBudget: budget is applied when the answer is
// emitted, so a tracked ad that runs dry is passed over without a re-rank.
func TestViewSkipsExhaustedBudget(t *testing.T) {
	e, store := budgetFixture(t, 1)
	mid := base0.Add(31 * time.Minute)
	if top := sameAsFullRanking(t, e, 1, mid); top[0].Ad != 1 {
		t.Fatalf("mid-flight top ad %d, want the budgeted ad 1", top[0].Ad)
	}
	if ok, err := store.ChargeImpression(1, mid); err != nil || !ok {
		t.Fatalf("charge: %v %v", ok, err)
	}
	if top := sameAsFullRanking(t, e, 1, mid); top[0].Ad != 2 {
		t.Fatalf("top ad %d with ad 1 exhausted, want 2", top[0].Ad)
	}
	wantPath(t, e, 1, 1)
}

// TestViewFallsBackWhenNoTrackedAdCanPay: with all four tracked ads in the
// exhausted campaign the view cannot fill the answer, and neither can a
// rebuilt one; the budget-aware ranking does.
func TestViewFallsBackWhenNoTrackedAdCanPay(t *testing.T) {
	e, store := budgetFixture(t, 4)
	mid := base0.Add(31 * time.Minute)
	if top := sameAsFullRanking(t, e, 1, mid); top[0].Ad != 1 {
		t.Fatalf("mid-flight top ad %d, want the budgeted ad 1", top[0].Ad)
	}
	if ok, err := store.ChargeImpression(1, mid); err != nil || !ok {
		t.Fatalf("charge: %v %v", ok, err)
	}
	if top := sameAsFullRanking(t, e, 1, mid); top[0].Ad != 5 {
		t.Fatalf("top ad %d with the campaign exhausted, want 5", top[0].Ad)
	}
	wantPath(t, e, 0, 2)
}

// TestViewTieWithBoundForcesRerank: an untracked ad scoring exactly the
// bound can still belong in the answer — it wins the ID tie-break against a
// tracked ad with a larger ID — so a k-th score equal to the bound is not
// proof enough.
func TestViewTieWithBoundForcesRerank(t *testing.T) {
	store := adstore.NewStore()
	// A flight that has not started: its ads never have budget here.
	camp, err := adstore.NewCampaign("later", 1, base0.Add(24*time.Hour), base0.Add(48*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	store.AddCampaign(camp)
	e, err := NewCAP(testScoring(), store, region, 8, 8, DefaultCAPOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.AddUser(1)
	// All bid 1, so all tie on the static score. 20–22 cannot pay; 25 is
	// the outsider (largest ID of the tie when the view is built); 30 leads
	// while its message is in the window.
	for _, id := range []adstore.AdID{20, 21, 22, 25, 30} {
		a := simpleAd(id, 2, 1)
		if id < 25 {
			a.Campaign = "later"
		}
		if id == 30 {
			a.Vec = textproc.SparseVector{1: 1}
		}
		if err := e.AddAd(a); err != nil {
			t.Fatal(err)
		}
	}
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	if top := sameAsFullRanking(t, e, 1, base0); top[0].Ad != 30 {
		t.Fatalf("top ad %d, want 30", top[0].Ad)
	}
	// Push ad 30's message out of the six-message window: it falls back to
	// the static score everything else has.
	for i := 0; i < 6; i++ {
		deliver(t, e, feed.MessageID(2+i), base0, textproc.SparseVector{3: 1})
	}
	if top := sameAsFullRanking(t, e, 1, base0); top[0].Ad != 25 {
		t.Fatalf("top ad %d, want 25 (ties 30 on score, smaller ID)", top[0].Ad)
	}
}

// TestViewAnswersAnotherK: a view is not tied to the k that built it. A
// k = 1 refresher's view tracks four ads; a reader asking for three is
// answered from it as long as the third score clears the bound, and the
// refresher's next call still finds its view.
func TestViewAnswersAnotherK(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	sameAsFullRanking(t, e, 1, base0)
	wantPath(t, e, 0, 1)
	if top := sameAsFullRanking(t, e, 3, base0); len(top) != 3 {
		t.Fatalf("%d ads for k = 3", len(top))
	}
	sameAsFullRanking(t, e, 1, base0)
	sameAsFullRanking(t, e, 2, base0)
	wantPath(t, e, 3, 1)
	if v := e.users[1].buf.view; v.size != viewSlack || cap(v.tracked) != viewSlack+viewJoinRoom {
		t.Fatalf("view sized %d (capacity %d) after reads at k ≤ 3, want it left at %d", v.size, cap(v.tracked), viewSlack)
	}
}

// TestViewRebuiltForADifferentK: a k the tracked set cannot prove — the
// fourth of four tracked ads IS the bound — re-ranks once into a view grown
// to 4k, which then serves the smaller k too: a k = 1 refresher and a k = 4
// reader taking turns do not rebuild it for each other.
func TestViewRebuiltForADifferentK(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	sameAsFullRanking(t, e, 1, base0)
	if top := sameAsFullRanking(t, e, 4, base0); len(top) != 4 {
		t.Fatalf("%d ads for k = 4", len(top))
	}
	wantPath(t, e, 0, 2)
	if v := e.users[1].buf.view; v.size != 4*viewSlack {
		t.Fatalf("view sized %d after a k = 4 re-rank, want %d", v.size, 4*viewSlack)
	}
	for i := 0; i < 3; i++ {
		deliver(t, e, feed.MessageID(2+i), base0, textproc.SparseVector{2: 0.01})
		sameAsFullRanking(t, e, 1, base0)
		sameAsFullRanking(t, e, 4, base0)
	}
	wantPath(t, e, 6, 2)
	// A re-rank at the smaller k (here: a query from before the view's
	// time) refills the view at the size it has grown to, not at 4 × 1.
	sameAsFullRanking(t, e, 1, base0.Add(-time.Minute))
	sameAsFullRanking(t, e, 4, base0)
	wantPath(t, e, 7, 3)
	if v := e.users[1].buf.view; v.size != 4*viewSlack || cap(v.tracked) != 4*viewSlack+viewJoinRoom {
		t.Fatalf("view sized %d (capacity %d) after k = 1 and k = 4 took turns, want it to stay %d (%d)",
			v.size, cap(v.tracked), 4*viewSlack, 4*viewSlack+viewJoinRoom)
	}
}

// TestViewSkippedForALargeK: a k whose 4k exceeds viewMaxTracked is ranked
// the classic way and leaves whatever view there is alone.
func TestViewSkippedForALargeK(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	large := viewMaxTracked/viewSlack + 1
	if top := sameAsFullRanking(t, e, large, base0); len(top) != 5 {
		t.Fatalf("%d ads for k = %d, want all 5", len(top), large)
	}
	if e.users[1].buf.view != nil {
		t.Fatal("a k above the ceiling built a view")
	}
	// A view that tracks all five ads could even answer it; it is not asked.
	sameAsFullRanking(t, e, 2, base0)
	v := e.users[1].buf.view
	sameAsFullRanking(t, e, large, base0)
	if e.users[1].buf.view != v || v.size != 2*viewSlack || cap(v.tracked) != 2*viewSlack+viewJoinRoom {
		t.Fatalf("a k above the ceiling replaced or resized the view: size %d, capacity %d", v.size, cap(v.tracked))
	}
	wantPath(t, e, 0, 3)
}

// TestViewMemoryIsBounded: what a view holds is a constant however much a
// catch-up has to tell it. Joiners beyond the join room are cut back
// mid-refresh rather than doubling the tracked slice; a pass that raises more
// than viewMaxNoted ads drops the view instead of growing the list; and a
// user who is read once and then receives 10 000 messages keeps the view —
// and the candidate buffer — for a window's worth of them, then nothing.
func TestViewMemoryIsBounded(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	// 40 static-heavy ads on term 1 and 300 low-bid outsiders, one term each.
	for id := adstore.AdID(1); id <= 40; id++ {
		e.AddAd(simpleAd(id, 1, 1-0.01*float64(id)))
	}
	for id := adstore.AdID(101); id <= 400; id++ {
		e.AddAd(simpleAd(id, textproc.TermID(id), 0.01))
	}
	bounded := func(when string) {
		t.Helper()
		v := e.users[1].buf.view
		if v == nil {
			return
		}
		if cap(v.tracked) > v.size+viewJoinRoom || v.size > viewMaxTracked || cap(v.noted) > viewMaxNoted {
			t.Fatalf("%s: view of size %d holds capacity for %d tracked and %d noted ads, limits %d and %d",
				when, v.size, cap(v.tracked), cap(v.noted), v.size+viewJoinRoom, viewMaxNoted)
		}
	}
	// lift is a message that raises outsiders 101..last past everything tracked.
	lift := func(last int) textproc.SparseVector {
		vec := textproc.SparseVector{}
		for id := 101; id <= last; id++ {
			vec[textproc.TermID(id)] = 5 + 0.01*float64(id) // no two alike: a tie with the bound would re-rank
		}
		return vec
	}
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	sameAsFullRanking(t, e, 2, base0)
	// 60 joiners for a join room of 16.
	deliver(t, e, 2, base0, lift(160))
	e.BufferSize(1)
	// The list is allocated once, by the first note, not grown append by append.
	if v := e.users[1].buf.view; len(v.noted) != 60 || cap(v.noted) != viewMaxNoted/2 {
		t.Fatalf("%d ads noted in room for %d, the scenario needs all 60 in a list of %d", len(v.noted), cap(v.noted), viewMaxNoted/2)
	}
	if top := sameAsFullRanking(t, e, 2, base0); top[0].Ad < 101 {
		t.Fatalf("top ad %d, want a lifted outsider", top[0].Ad)
	}
	wantPath(t, e, 1, 1)
	bounded("after 60 joiners")

	// 300 raised ads in one pass are more than a view takes note of.
	deliver(t, e, 3, base0, lift(400))
	v := e.users[1].buf.view
	e.BufferSize(1)
	if e.users[1].buf.view != nil || len(v.noted) != viewMaxNoted {
		t.Fatalf("view kept (%v) with %d ads noted of 300 raised, limit %d", e.users[1].buf.view != nil, len(v.noted), viewMaxNoted)
	}
	sameAsFullRanking(t, e, 2, base0)
	wantPath(t, e, 1, 2)

	at, dropped := base0, 0
	for i := 0; i < 10000; i++ {
		at = at.Add(time.Second)
		id := textproc.TermID(101 + i%200)
		deliver(t, e, feed.MessageID(4+i), at, textproc.SparseVector{id: 5, id + 1: 5, 1: 1})
		bounded("unread deliveries")
		if e.users[1].buf.view == nil && dropped == 0 {
			dropped = i + 1
		}
	}
	if dropped == 0 || e.users[1].buf.view != nil || e.TotalBufferEntries() != 0 || e.CachedMessages() != 0 {
		t.Fatalf("after 10 000 unread deliveries: view dropped after %d, view held %v, %d buffer entries, %d cached messages",
			dropped, e.users[1].buf.view != nil, e.TotalBufferEntries(), e.CachedMessages())
	}
	t.Logf("view dropped after %d unread deliveries", dropped)
	sameAsFullRanking(t, e, 2, at)
}

// TestContinuousViewPathAllocations pins what a query answered from the view
// allocates: the result slice and nothing else.
func TestContinuousViewPathAllocations(t *testing.T) {
	e := viewFixture(t, DefaultCAPOptions())
	deliver(t, e, 1, base0, textproc.SparseVector{1: 1})
	sameAsFullRanking(t, e, 1, base0)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.TopAds(1, 1, base0); err != nil {
			t.Fatal(err)
		}
	})
	if view, rerank := e.TopAdsPaths(); rerank != 1 || view < 100 {
		t.Fatalf("%d from the view, %d re-ranked: the measured calls must take the view path", view, rerank)
	}
	if allocs > 1 {
		t.Fatalf("view-path TopAds allocates %.0f times, want at most 1 (the result)", allocs)
	}
}
