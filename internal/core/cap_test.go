package core

import (
	"math"
	"testing"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

func newTestCAP(t *testing.T, opts CAPOptions) *CAP {
	t.Helper()
	e, err := NewCAP(testScoring(), nil, region, 8, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func simpleAd(id adstore.AdID, term textproc.TermID, bid float64) *adstore.Ad {
	return &adstore.Ad{
		ID:     id,
		Vec:    textproc.SparseVector{term: 1},
		Global: true,
		Slots:  timeslot.AllSlots,
		Bid:    bid,
	}
}

func post(id feed.MessageID, at time.Time, term textproc.TermID, w float64) feed.Message {
	return feed.Message{ID: id, Time: at, Vec: textproc.SparseVector{term: w}}
}

func TestCAPBufferGrowsAndShrinks(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	e.AddAd(simpleAd(100, 7, 0.5))
	e.AddAd(simpleAd(101, 8, 0.5))

	// Window cap is 6 (testScoring). Post 6 messages on term 7.
	now := base0
	for i := 0; i < 6; i++ {
		now = now.Add(time.Minute)
		if err := e.Deliver(post(feed.MessageID(i), now, 7, 1), []feed.UserID{1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.BufferSize(1); got != 1 {
		t.Fatalf("buffer size = %d, want 1 (only ad 100 matches)", got)
	}
	if got := e.CachedMessages(); got != 6 {
		t.Fatalf("cached messages = %d, want 6", got)
	}

	// Push 6 messages on term 8, the user read after each: all term-7
	// messages evict, buffer should swap to ad 101 one subtraction at a time
	// and the old message caches should be released.
	for i := 6; i < 12; i++ {
		now = now.Add(time.Minute)
		if err := e.Deliver(post(feed.MessageID(i), now, 8, 1), []feed.UserID{1}); err != nil {
			t.Fatal(err)
		}
		if got, want := e.BufferSize(1), 2-i/11; got != want {
			t.Fatalf("buffer size after %d of the 6 = %d, want %d", i-5, got, want)
		}
	}
	if got := e.BufferSize(1); got != 1 {
		t.Fatalf("buffer size after swap = %d, want 1", got)
	}
	if got := e.CachedMessages(); got != 6 {
		t.Fatalf("cached messages after eviction = %d, want 6", got)
	}
	top, err := e.TopAds(1, 1, now)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].Ad != 101 {
		t.Fatalf("top ad = %d, want 101", top[0].Ad)
	}
}

func TestCAPCacheSharedAcrossFollowers(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	for u := feed.UserID(1); u <= 3; u++ {
		e.AddUser(u)
	}
	e.AddAd(simpleAd(100, 7, 0.5))
	// A message is cached for the users somebody reads; these three are read
	// after every delivery.
	readAll := func() {
		for u := feed.UserID(1); u <= 3; u++ {
			e.BufferSize(u)
		}
	}
	if err := e.Deliver(post(1, base0, 7, 1), []feed.UserID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	readAll()
	if got := e.CachedMessages(); got != 1 {
		t.Fatalf("one message delivered to 3 users should cache once, got %d", got)
	}
	// Evict it from all three windows (capacity 6 → six more posts each).
	now := base0
	for i := 2; i <= 7; i++ {
		now = now.Add(time.Minute)
		if err := e.Deliver(post(feed.MessageID(i), now, 9, 1), []feed.UserID{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			e.BufferSize(1)
			if got := e.CachedMessages(); got != 7 {
				t.Fatalf("cached messages = %d, want 7 (msg 1 is still owed to two buffers)", got)
			}
		}
		readAll()
	}
	// Message 1 evicted from all 3 windows → refcount 0 → cache released.
	// 6 live messages remain cached.
	if got := e.CachedMessages(); got != 6 {
		t.Fatalf("cached messages = %d, want 6 (msg 1 released)", got)
	}
}

func TestCAPTopAdsRespectsSlotTargeting(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	morningOnly := simpleAd(1, 7, 0.9)
	morningOnly.Slots = timeslot.NewSet(timeslot.Morning)
	allDay := simpleAd(2, 7, 0.1)
	e.AddAd(morningOnly)
	e.AddAd(allDay)
	e.Deliver(post(1, base0, 7, 1), []feed.UserID{1}) // base0 is 08:00

	top, _ := e.TopAds(1, 2, base0)
	if len(top) != 2 || top[0].Ad != 1 {
		t.Fatalf("morning query: %+v", top)
	}
	evening := time.Date(2026, 7, 6, 21, 0, 0, 0, time.UTC)
	top, _ = e.TopAds(1, 2, evening)
	if len(top) != 1 || top[0].Ad != 2 {
		t.Fatalf("evening query should exclude morning-only ad: %+v", top)
	}
}

func TestCAPTopAdsRespectsBudgetPacing(t *testing.T) {
	store := adstore.NewStore()
	camp, err := adstore.NewCampaign("c", 1.0, base0, base0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	store.AddCampaign(camp)
	e, err := NewCAP(testScoring(), store, region, 8, 8, DefaultCAPOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.AddUser(1)
	budgeted := simpleAd(1, 7, 0.5)
	budgeted.Campaign = "c"
	e.AddAd(budgeted)
	e.AddAd(simpleAd(2, 7, 0.1))
	e.Deliver(post(1, base0, 7, 1), []feed.UserID{1})

	// At flight start nothing is released: budgeted ad is filtered out.
	top, _ := e.TopAds(1, 2, base0)
	if len(top) != 1 || top[0].Ad != 2 {
		t.Fatalf("paced-out ad served: %+v", top)
	}
	// Mid-flight it can serve.
	top, _ = e.TopAds(1, 2, base0.Add(31*time.Minute))
	if len(top) != 2 || top[0].Ad != 1 {
		t.Fatalf("mid-flight: %+v", top)
	}
	// Exhaust it; it disappears again.
	if ok, err := store.ChargeImpression(1, base0.Add(31*time.Minute)); err != nil || !ok {
		t.Fatalf("charge: %v %v", ok, err)
	}
	top, _ = e.TopAds(1, 2, base0.Add(31*time.Minute))
	if len(top) != 1 || top[0].Ad != 2 {
		t.Fatalf("exhausted ad still served: %+v", top)
	}
}

func TestCAPGeoTargetedRanking(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	near := &adstore.Ad{
		ID:     1,
		Vec:    textproc.SparseVector{7: 1},
		Target: geo.Circle{Center: geo.Point{Lat: 5, Lng: 5}, RadiusKm: 100},
		Slots:  timeslot.AllSlots,
		Bid:    0.1,
	}
	far := &adstore.Ad{
		ID:     2,
		Vec:    textproc.SparseVector{7: 1},
		Target: geo.Circle{Center: geo.Point{Lat: 9, Lng: 9}, RadiusKm: 100},
		Slots:  timeslot.AllSlots,
		Bid:    0.1,
	}
	e.AddAd(near)
	e.AddAd(far)
	if err := e.CheckIn(1, geo.Point{Lat: 5, Lng: 5}, base0); err != nil {
		t.Fatal(err)
	}
	e.Deliver(post(1, base0, 7, 1), []feed.UserID{1})
	top, _ := e.TopAds(1, 5, base0)
	if len(top) != 1 || top[0].Ad != 1 {
		t.Fatalf("only the covering ad should serve: %+v", top)
	}
	if top[0].Geo <= 0 {
		t.Fatalf("geo component missing: %+v", top[0])
	}
	// Without a check-in, geo-targeted ads must not serve at all.
	e2 := newTestCAP(t, DefaultCAPOptions())
	e2.AddUser(1)
	cp := *near
	e2.AddAd(&cp)
	e2.Deliver(post(1, base0, 7, 1), []feed.UserID{1})
	top, _ = e2.TopAds(1, 5, base0)
	if len(top) != 0 {
		t.Fatalf("geo ad served without user location: %+v", top)
	}
}

func TestCAPDecayReordersOverTime(t *testing.T) {
	// A text-matched ad should outrank a high-bid ad right after the post,
	// but decay below it hours later.
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	textAd := simpleAd(1, 7, 0.05)
	bidAd := simpleAd(2, 999, 1.0) // never text-matches
	e.AddAd(textAd)
	e.AddAd(bidAd)
	e.Deliver(post(1, base0, 7, 1), []feed.UserID{1})

	top, _ := e.TopAds(1, 2, base0)
	if top[0].Ad != 1 {
		t.Fatalf("fresh post: text ad should lead: %+v", top)
	}
	later := base0.Add(6 * time.Hour) // 12 half-lives of 30 min
	top, _ = e.TopAds(1, 2, later)
	if top[0].Ad != 2 {
		t.Fatalf("after decay: bid ad should lead: %+v", top)
	}
}

// TestCAPDecayUnderflowDoesNotPoisonBuffer is the regression test for the
// scale-underflow bug: after an idle gap long enough that the decay factor
// between window references flushes to exactly 0 (exp(-x) underflows past
// x ≈ 745; with the 30-minute test half-life that is a few weeks), the
// buffer scale became 0, the renormalization guard (`scale < 1e-150 &&
// scale > 0`) never fired, and the next add divided by zero — permanently
// poisoning the user's candidate buffer with ±Inf/NaN.
func TestCAPDecayUnderflowDoesNotPoisonBuffer(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	e.AddAd(simpleAd(100, 7, 0.5))

	if err := e.Deliver(post(1, base0, 7, 1), []feed.UserID{1}); err != nil {
		t.Fatal(err)
	}
	// Idle far past the underflow horizon, then post again: the age factor
	// between the old and new window reference is exactly 0.
	later := base0.Add(60 * 24 * time.Hour)
	if err := e.Deliver(post(2, later, 7, 1), []feed.UserID{1}); err != nil {
		t.Fatal(err)
	}
	top, err := e.TopAds(1, 2, later)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Ad != 100 {
		t.Fatalf("top after idle gap = %+v, want ad 100", top)
	}
	for _, s := range top {
		if math.IsNaN(s.Score) || math.IsInf(s.Score, 0) || math.IsNaN(s.Text) || math.IsInf(s.Text, 0) {
			t.Fatalf("buffer poisoned by decay underflow: %+v", s)
		}
	}
	if top[0].Text <= 0 {
		t.Fatalf("fresh post should contribute text relevance, got %+v", top[0])
	}
	// Every later event must stay finite too.
	if err := e.Deliver(post(3, later.Add(time.Minute), 7, 1), []feed.UserID{1}); err != nil {
		t.Fatal(err)
	}
	top, _ = e.TopAds(1, 2, later.Add(time.Minute))
	if math.IsNaN(top[0].Score) || math.IsInf(top[0].Score, 0) {
		t.Fatalf("score still poisoned after recovery post: %+v", top[0])
	}
}

// TestDynBufAgeUnderflow pins the dynBuf repair paths directly: a factor of
// exactly 0 clears the buffer and resets the scale; a subnormal product
// renormalizes into the stored values. Both leave the next set finite.
func TestDynBufAgeUnderflow(t *testing.T) {
	b := newDynBuf()
	b.set(1, 0.5)
	b.age(0)
	if b.scale != 1 || len(b.e) != 0 {
		t.Fatalf("zero factor: scale=%v entries=%d, want scale 1 and empty buffer", b.scale, len(b.e))
	}
	b.set(1, 0.7)
	if v := b.get(1); math.IsNaN(v) || math.IsInf(v, 0) || v != 0.7 {
		t.Fatalf("set after zero-age = %v, want 0.7", v)
	}

	b = newDynBuf()
	b.set(2, 1.0)
	b.age(5e-324) // subnormal, > 0: renormalization path
	if b.scale != 1 {
		t.Fatalf("subnormal factor: scale=%v, want renormalized to 1", b.scale)
	}
	b.set(2, 0.25)
	if v := b.get(2); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("set after subnormal age = %v, want finite", v)
	}
}

func TestCAPDeliverEmptyFollowerList(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	if err := e.Deliver(post(1, base0, 7, 1), nil); err != nil {
		t.Fatalf("empty fan-out should be a no-op: %v", err)
	}
	if e.CachedMessages() != 0 {
		t.Fatal("no-follower message should not be cached")
	}
}

func TestCAPAddUserIdempotent(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	e.AddAd(simpleAd(1, 7, 0.5))
	e.Deliver(post(1, base0, 7, 1), []feed.UserID{1})
	e.AddUser(1) // must not reset window or buffer
	if e.BufferSize(1) != 1 {
		t.Fatal("re-AddUser cleared buffer")
	}
	top, _ := e.TopAds(1, 1, base0)
	if len(top) != 1 || top[0].Text <= 0 {
		t.Fatalf("window lost: %+v", top)
	}
}
