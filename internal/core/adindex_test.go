package core

import (
	"sync"
	"testing"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/textproc"
)

// TestSharedDeltaListComputedOnce: four CAP shards over one AdIndex, with a
// warm user each, receive one message. The message has one shared state in
// the AdIndex, held by all four; the four catch-ups that need its delta list
// run at once, and all four get the very list one of them computed — a list
// computed per shard would be a separate clone. Once every user's buffer has
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
	mc := shards[0].held[msg.ID].mc
	for i, e := range shards {
		if h := e.held[msg.ID]; h.mc == nil || h.mc != mc || h.refs != 1 {
			t.Fatalf("shard %d holds %+v, want one reference on the shared state %p", i, h, mc)
		}
	}
	if mc.shards != len(shards) || ads.CachedMessages() != 2 {
		t.Fatalf("shared state held by %d shards, %d messages cached; want %d and 2", mc.shards, ads.CachedMessages(), len(shards))
	}

	lists := make([][]reachDelta, len(shards))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, e := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			lists[i] = e.deltasOf(msg)
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
