package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/index"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// ad returns the live ad with the given ID (nil when none is registered): the
// tests' lookup by ID, a scan of the slot table.
func (x *AdIndex) ad(id adstore.AdID) *adstore.Ad {
	if slot, ok := x.slotOf(id); ok {
		return x.ads[slot]
	}
	return nil
}

// slotOf returns the slot of the live ad with the given ID.
func (x *AdIndex) slotOf(id adstore.AdID) (uint32, bool) {
	for slot, a := range x.ads {
		if a != nil && a.ID == id {
			return uint32(slot), true
		}
	}
	return 0, false
}

// tracksAd reports whether the ad with the given ID is in the tracked set.
func (v *topView) tracksAd(id adstore.AdID) bool {
	return slices.ContainsFunc(v.tracked, func(en viewEntry) bool { return en.a.ID == id })
}

// refs is the reference count on a post's record.
func refs(p *feed.Post) int { return int(uint32(p.Shared.Load())) }

// TestSharedDeltaListComputedOnce: four CAP shards over one AdIndex, with a
// warm user each, receive one post's record. The record counts one reference
// per warm recipient; the four catch-ups that need its delta list run at
// once, and all four get the very list one of them computed — a list
// computed per shard would be a separate clone. Once every user's buffer has
// turned cold, no reference is left and the list is dropped.
func TestSharedDeltaListComputedOnce(t *testing.T) {
	s := testScoring()
	ads, err := NewAdIndex(region, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	store := adstore.NewStore()
	shards := make([]*CAP, 4)
	for i := range shards {
		if shards[i], err = NewCAPOn(s, store, ads, DefaultCAPOptions()); err != nil {
			t.Fatal(err)
		}
		shards[i].AddUser(feed.UserID(i))
	}
	for id := adstore.AdID(1); id <= 20; id++ {
		a := simpleAd(id, textproc.TermID(id%5), 0.5)
		if err := store.Add(a); err != nil {
			t.Fatal(err)
		}
		ads.Register(a)
	}
	deliverAll := func(id feed.MessageID, at time.Time, vec textproc.SparseVector) *feed.Post {
		p := &feed.Post{Message: feed.Message{ID: id, Time: at, Vec: vec}}
		for i, e := range shards {
			if err := e.DeliverPost(p, []feed.UserID{feed.UserID(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	deliverAll(1, base0, textproc.SparseVector{{ID: 1, W: 1}})
	for i, e := range shards { // warm every user
		if _, err := e.TopAds(feed.UserID(i), 3, base0); err != nil {
			t.Fatal(err)
		}
	}
	p := deliverAll(2, base0.Add(time.Second), textproc.SparseVector{{ID: 2, W: 1}, {ID: 3, W: 0.5}})
	if refs(p) != len(shards) || ads.CachedMessages() != 2 {
		t.Fatalf("%d references on the post, %d posts cached; want %d and 2", refs(p), ads.CachedMessages(), len(shards))
	}

	lists := make([][]index.Delta, len(shards))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, e := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			lists[i] = e.deltaList(p, new(index.Accumulator))
		}()
	}
	close(start)
	wg.Wait()
	if len(lists[0]) == 0 {
		t.Fatal("the post matches ads, yet its delta list is empty")
	}
	for i, l := range lists {
		if &l[0] != &lists[0][0] {
			t.Fatalf("shard %d merged a delta list of its own", i)
		}
	}

	for j := range s.WindowCap + 1 { // nobody reads: every buffer turns cold
		deliverAll(feed.MessageID(3+j), p.Time.Add(time.Duration(j+1)*time.Second), textproc.SparseVector{{ID: 4, W: 1}})
	}
	if n := ads.CachedMessages(); n != 0 || refs(p) != 0 || p.Deltas != nil || len(ads.lists) != 0 {
		t.Fatalf("%d posts cached, %d references and a list of %d left on the post, %d lists computed after every buffer turned cold",
			n, refs(p), len(p.Deltas), len(ads.lists))
	}
}

// TestPostLifecycleUnderConcurrentShards races a post's record through the
// moves three shards make at once. Shard A holds the post's last reference
// and releases it, which drops the computed list; shard B's rebuild holds it
// again; shard C, whose buffer holds it too, asks for the list in a
// catch-up, and so does B. Whatever the interleaving, B and C merge one list,
// computed once for the references they hold together, and it is the
// post's exact list: never nil, never the one A's release dropped after the
// ad side moved on. Run it under -race.
func TestPostLifecycleUnderConcurrentShards(t *testing.T) {
	ads, err := NewAdIndex(region, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for id := adstore.AdID(1); id <= 20; id++ {
		ads.Register(simpleAd(id, textproc.TermID(id%5), 0.5))
	}
	vec := textproc.SparseVector{{ID: 1, W: 1}, {ID: 3, W: 0.5}}
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	recomputed := 0
	for r := range rounds {
		p := &feed.Post{Message: feed.Message{ID: feed.MessageID(r), Time: base0, Vec: vec}}
		ads.hold(p, 1) // A's
		ads.deltaList(p, new(index.Accumulator))
		if r%2 == 1 {
			// The ad side moves on while A's list is computed: a list
			// left as it was computed would miss the new ad.
			ads.Register(simpleAd(adstore.AdID(100+r), 1, 0.5))
		}
		kept := p.Deltas
		want := new(index.Accumulator).DeltaList(ads.inv, vec)

		var wg sync.WaitGroup
		start := make(chan struct{})
		var got [2][]index.Delta
		wg.Add(3)
		go func() { // A: the last reference goes
			defer wg.Done()
			<-start
			ads.release(p)
		}()
		for i := range got { // B's rebuild, then C's catch-up, hold and read
			go func() {
				defer wg.Done()
				<-start
				ads.hold(p, 1)
				got[i] = ads.deltaList(p, new(index.Accumulator))
			}()
		}
		close(start)
		wg.Wait()
		for i, l := range got {
			if l == nil || !slices.Equal(l, want) {
				t.Fatalf("round %d: reader %d merged %v, want the post's list %v", r, i, l, want)
			}
		}
		if &got[0][0] != &got[1][0] {
			t.Fatalf("round %d: the two readers merged two computations of one live list", r)
		}
		if &got[0][0] != &kept[0] {
			recomputed++
		}
		if refs(p) != 2 || ads.CachedMessages() != 1 || len(ads.lists) != 1 {
			t.Fatalf("round %d: %d references, %d posts cached, %d lists computed; want 2, 1, 1", r, refs(p), ads.CachedMessages(), len(ads.lists))
		}
		ads.release(p)
		ads.release(p)
		if ads.CachedMessages() != 0 || len(ads.lists) != 0 || p.Deltas != nil {
			t.Fatalf("round %d: %d posts cached and %d lists computed after the last release", r, ads.CachedMessages(), len(ads.lists))
		}
		if r%2 == 1 {
			ads.Unregister(adstore.AdID(100 + r))
		}
	}
	t.Logf("A's release dropped the list before B and C held the post in %d of %d rounds", recomputed, rounds)
}

// TestReusedSlotRebuildsTheLaggingBuffer pins the slot-reuse rule. User 1's
// buffer and view hold ad X, then fall behind: X is withdrawn and ad Y, which
// matches the same posts with another weight and bid, takes X's slot as early
// as the rule allows — at the registration churnCap after X's withdrawal, not
// one sooner. The lagging buffer's next read must not take Y for X: its
// answer is RS's, and Y's value is its exact one. User 2, read throughout,
// settles the churn ad by ad and answers RS's too.
func TestReusedSlotRebuildsTheLaggingBuffer(t *testing.T) {
	s := testScoring()
	store := adstore.NewStore()
	rs, err := NewRS(s, store)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewCAP(s, store, region, 8, 8, DefaultCAPOptions())
	if err != nil {
		t.Fatal(err)
	}
	add := func(a *adstore.Ad) uint32 {
		t.Helper()
		if err := e.AddAd(a); err != nil {
			t.Fatal(err)
		}
		slot, _ := e.slotOf(a.ID)
		return slot
	}
	for _, r := range []Recommender{rs, e} {
		r.AddUser(1)
		r.AddUser(2)
	}
	now, msg := base0, feed.MessageID(0)
	read := func(u feed.UserID) {
		t.Helper()
		want, err := rs.TopAds(u, 3, now)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.TopAds(u, 3, now)
		if err != nil {
			t.Fatal(err)
		}
		if err := scoresCompatible(want, got, 1e-12); err != nil {
			t.Fatalf("user %d: %v\n got %+v\nwant %+v", u, err, got, want)
		}
	}
	deliver := func() {
		t.Helper()
		now, msg = now.Add(time.Minute), msg+1
		m := feed.Message{ID: msg, Time: now, Vec: textproc.SparseVector{{ID: 7, W: 1}, {ID: textproc.TermID(20 + msg%3), W: 0.5}}}
		for _, r := range []Recommender{rs, e} {
			if err := r.Deliver(m, []feed.UserID{1, 2}); err != nil {
				t.Fatal(err)
			}
		}
	}

	x := &adstore.Ad{ID: 1, Vec: textproc.SparseVector{{ID: 7, W: 1}}, Global: true, Slots: timeslot.AllSlots, Bid: 0.9}
	slotX := add(x)
	for id := adstore.AdID(2); id <= 4; id++ {
		add(simpleAd(id, textproc.TermID(18+id), 0.3))
	}
	deliver()
	read(1)
	read(2)
	if v := e.users[1].buf.view; v == nil || !v.tracks(slotX) || e.users[1].buf.get(slotX) == 0 {
		t.Fatal("the scenario needs X buffered and tracked by user 1's view")
	}

	// User 1 reads no more. X goes; fillers take fresh slots until the rule
	// releases X's, read by user 2 on the way.
	if err := store.Remove(x.ID); err != nil {
		t.Fatal(err)
	}
	e.Unregister(x.ID)
	for id := adstore.AdID(100); id < 100+churnCap-1; id++ {
		if slot := add(simpleAd(id, textproc.TermID(30+id%5), 0.2)); slot == slotX {
			t.Fatalf("ad %d took X's slot %d churn entries after X's withdrawal, inside the record", id, id-99)
		}
		if id%16 == 0 {
			deliver()
			read(2)
		}
	}
	y := &adstore.Ad{ID: 50, Vec: textproc.SparseVector{{ID: 7, W: 0.3}, {ID: 21, W: 0.7}}, Global: true, Slots: timeslot.AllSlots, Bid: 0.4}
	if slot := add(y); slot != slotX {
		t.Fatalf("Y took slot %d, want X's slot %d, released churnCap entries after X's withdrawal", slot, slotX)
	}
	deliver()
	read(1)
	read(2)
	agg, _ := e.context(e.users[1], e.users[1].win.Ref())
	if got, want := e.users[1].buf.get(slotX), y.Vec.Dot(agg); got != want {
		t.Fatalf("user 1 holds %v in Y's slot, Y's exact value is %v", got, want)
	}
}
