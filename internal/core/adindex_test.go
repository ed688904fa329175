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

// TestSharedDeltaListComputedOnce: four CAP shards over one AdIndex, with a
// warm user each, receive one message. The message has one shared state in
// the AdIndex, with one reference per warm recipient; the four catch-ups that
// need its delta list run at once, and all four get the very list one of them
// computed — a list computed per shard would be a separate clone. Once every user's buffer has
// turned cold, nothing is left cached.
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
	deliverAll := func(id feed.MessageID, at time.Time, vec textproc.SparseVector) {
		for i, e := range shards {
			if err := e.Deliver(feed.Message{ID: id, Time: at, Vec: vec}, []feed.UserID{feed.UserID(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliverAll(1, base0, textproc.SparseVector{{ID: 1, W: 1}})
	for i, e := range shards { // warm every user
		if _, err := e.TopAds(feed.UserID(i), 3, base0); err != nil {
			t.Fatal(err)
		}
	}
	msg := feed.Message{ID: 2, Time: base0.Add(time.Second), Vec: textproc.SparseVector{{ID: 2, W: 1}, {ID: 3, W: 0.5}}}
	deliverAll(msg.ID, msg.Time, msg.Vec)
	mc := ads.msgs.m[msg.ID]
	if mc == nil || mc.refs != len(shards) || ads.CachedMessages() != 2 {
		t.Fatalf("shared state %+v, %d messages cached; want %d references and 2", mc, ads.CachedMessages(), len(shards))
	}

	lists := make([][]index.Delta, len(shards))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, e := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			lists[i] = e.deltasOf(msg, mc, new(index.Accumulator))
		}()
	}
	close(start)
	wg.Wait()
	if len(lists[0]) == 0 {
		t.Fatal("the message matches ads, yet its delta list is empty")
	}
	for i, l := range lists {
		if &l[0] != &lists[0][0] {
			t.Fatalf("shard %d merged a delta list of its own", i)
		}
	}

	for j := range s.WindowCap + 1 { // nobody reads: every buffer turns cold
		deliverAll(feed.MessageID(3+j), msg.Time.Add(time.Duration(j+1)*time.Second), textproc.SparseVector{{ID: 4, W: 1}})
	}
	if n := ads.CachedMessages(); n != 0 {
		t.Fatalf("%d messages cached after every buffer turned cold", n)
	}
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
