package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
)

// readGaps makes the oracle tests read users at every distance behind their
// window the lazy buffer distinguishes. A scheduled user is read when the
// deliveries since its last read reach the next gap of the cycle 1, 0, 2, 3 …
// W−1, W, W+2 (0 is a second read straight after the first); any other read
// of the user resets its count. observe files each read, per CAP engine it
// reached, by what the catch-up did, and fails the test when that is not what
// the gap allows.
type readGaps struct {
	w     int
	cycle []int
	pos   map[feed.UserID]int
	since map[feed.UserID]int // deliveries since the user's last read

	churnBehind int
	seen        map[*CAP]*regimes
}

// regimes counts one CAP's reads by what its catch-up did.
type regimes struct {
	upToDate, cold, unseen, fixedUp int
	batched                         []int // merges by gap, 1..w-1
}

func newReadGaps(w int) *readGaps {
	g := &readGaps{w: w, cycle: []int{1, 0}, pos: map[feed.UserID]int{}, since: map[feed.UserID]int{}, seen: map[*CAP]*regimes{}}
	for gap := 2; gap <= w; gap++ {
		g.cycle = append(g.cycle, gap)
	}
	g.cycle = append(g.cycle, w+2)
	return g
}

func (g *readGaps) delivered(followers []feed.UserID) {
	for _, u := range followers {
		g.since[u]++
	}
}

// due reports whether scheduled user u is to be read now, and moves u on to
// its next gap if so.
func (g *readGaps) due(u feed.UserID) bool {
	if g.since[u] < g.cycle[g.pos[u]] {
		return false
	}
	g.pos[u] = (g.pos[u] + 1) % len(g.cycle)
	return true
}

// churned is called for every ad registered or withdrawn and every check-in:
// what the lazy buffer has to survive is churn that lands while some buffer
// is warm and behind.
func (g *readGaps) churned() {
	for _, n := range g.since {
		if n > 0 && n < g.w {
			g.churnBehind++
			return
		}
	}
}

// observe runs read — which calls TopAds for u once on each of caps — and
// files it by regime.
func (g *readGaps) observe(t *testing.T, u feed.UserID, read func(), caps ...*CAP) {
	t.Helper()
	type before struct{ fixes, merges, rebuilds uint64 }
	was := make([]before, len(caps))
	for i, e := range caps {
		m, r := e.CatchUps()
		was[i] = before{0, m, r}
		if buf := e.users[u].buf; buf != nil { // a cold user has none
			was[i].fixes = e.churned - buf.churned
		}
	}
	read()
	gap := g.since[u]
	g.since[u] = 0
	for i, e := range caps {
		seen := g.seen[e]
		if seen == nil {
			seen = &regimes{batched: make([]int, g.w)}
			g.seen[e] = seen
		}
		m, r := e.CatchUps()
		switch m, r = m-was[i].merges, r-was[i].rebuilds; {
		case m == 0 && r == 0:
			if gap != 0 {
				t.Fatalf("user %d read %d deliveries behind without a catch-up", u, gap)
			}
			seen.upToDate++
		case m == 1 && r == 0:
			if gap < 1 || gap >= g.w {
				t.Fatalf("user %d caught up by a merge %d deliveries behind, window %d", u, gap, g.w)
			}
			seen.batched[gap]++
			if was[i].fixes > 0 {
				seen.fixedUp++
			}
		case m == 0 && r == 1:
			// Below the window size it is a first read or the periodic rebuild.
			if gap >= g.w {
				seen.cold++
			}
			if gap > g.w {
				seen.unseen++ // a message came and went without touching a buffer
			}
		default:
			t.Fatalf("user %d: one read made %d merges and %d rebuilds", u, m, r)
		}
	}
}

// require fails unless every CAP observed showed every regime: a read with
// nothing pending, a merge at every gap from 1 (the subscribed user's) to
// W−1, a cold buffer rebuilt, one that messages passed through unseen, a
// merge that ended by settling ad churn — and churn landed while a buffer was
// behind.
func (g *readGaps) require(t *testing.T) {
	t.Helper()
	for e, seen := range g.seen {
		t.Logf("%+v reads by regime: %d up to date, merges by gap %v, %d cold (%d with messages never seen), %d merges that settled ad churn; %d churn events behind",
			e.opts, seen.upToDate, seen.batched[1:], seen.cold, seen.unseen, seen.fixedUp, g.churnBehind)
		ok := seen.upToDate > 0 && seen.cold > 0 && seen.unseen > 0 && seen.fixedUp > 0 && g.churnBehind > 0
		for _, n := range seen.batched[1:] {
			ok = ok && n > 0
		}
		if !ok {
			t.Fatal("every regime must occur")
		}
	}
}

func mustDeliver(t *testing.T, e Recommender, id feed.MessageID, at time.Time, term textproc.TermID, users ...feed.UserID) {
	t.Helper()
	if err := e.Deliver(post(id, at, term, 1), users); err != nil {
		t.Fatal(err)
	}
}

// TestCAPCachedMessagesWorstCase drives the reference bound of invariants.go:
// with fan-out 1 and every user W−1 deliveries behind a full window, each
// user holds its W resident messages and W−1 evictions it still owes — 2W−1
// cached messages a user, and no more. One more message each and everyone is
// cold: every reference is released and no buffer entry is left.
func TestCAPCachedMessagesWorstCase(t *testing.T) {
	const users = 5
	e := newTestCAP(t, DefaultCAPOptions())
	w := e.scoring.WindowCap
	e.AddAd(simpleAd(100, 7, 0.5))
	var id feed.MessageID
	now := base0
	push := func(u feed.UserID) {
		id++
		now = now.Add(time.Second)
		mustDeliver(t, e, id, now, 7, u)
	}
	for u := feed.UserID(0); u < users; u++ {
		e.AddUser(u)
		for i := 0; i < w; i++ {
			push(u)
		}
		if got := e.BufferSize(u); got != 1 { // the read that warms u
			t.Fatalf("user %d: %d buffer entries, want 1", u, got)
		}
		for i := 0; i < w-1; i++ {
			push(u)
		}
	}
	if got, want := e.CachedMessages(), users*(2*w-1); got != want {
		t.Fatalf("%d cached messages with every user %d behind, want the worst case %d", got, w-1, want)
	}
	if got := e.TotalBufferEntries(); got != users {
		t.Fatalf("%d buffer entries, want %d", got, users)
	}
	for u := feed.UserID(0); u < users; u++ {
		push(u)
	}
	if c, n := e.CachedMessages(), e.TotalBufferEntries(); c != 0 || n != 0 {
		t.Fatalf("%d cached messages and %d buffer entries with every user cold, want none", c, n)
	}
	merged, skipped := e.Deliveries()
	if merged != 0 || skipped != uint64(id) {
		t.Fatalf("%d deliveries merged and %d skipped of %d nobody read through a merge", merged, skipped, id)
	}
}

// TestCAPEvictionHoldsItsReferenceUntilApplied: a shared delta list is
// released when the eviction it is owed to is applied, not when it happens —
// the catch-up still has to subtract it.
func TestCAPEvictionHoldsItsReferenceUntilApplied(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	e.AddAd(simpleAd(100, 7, 0.5))
	e.AddAd(simpleAd(101, 8, 0.5))
	w := e.scoring.WindowCap
	now := base0
	for i := 0; i < w; i++ {
		now = now.Add(time.Minute)
		mustDeliver(t, e, feed.MessageID(i), now, 7, 1)
	}
	if got := e.BufferSize(1); got != 1 {
		t.Fatalf("%d buffer entries, want 1", got)
	}
	// Three of the six applied messages leave, unread.
	for i := 0; i < 3; i++ {
		now = now.Add(time.Minute)
		mustDeliver(t, e, feed.MessageID(w+i), now, 8, 1)
	}
	if got := e.CachedMessages(); got != w+3 {
		t.Fatalf("%d cached messages with three evictions owed, want %d", got, w+3)
	}
	if got := e.TotalBufferEntries(); got != 1 {
		t.Fatalf("a delivery touched the buffer: %d entries materialised, want the 1 of the last read", got)
	}
	if got := e.BufferSize(1); got != 2 {
		t.Fatalf("%d buffer entries after the catch-up, want 2", got)
	}
	if got := e.CachedMessages(); got != w {
		t.Fatalf("%d cached messages after the evictions were applied, want %d", got, w)
	}
	if merges, rebuilds := e.CatchUps(); merges != 1 || rebuilds != 1 {
		t.Fatalf("%d merges and %d rebuilds, want the warming rebuild and one merge for three deliveries", merges, rebuilds)
	}
	if merged, skipped := e.Deliveries(); merged != 3 || skipped != uint64(w) {
		t.Fatalf("%d deliveries merged and %d skipped, want 3 and %d", merged, skipped, w)
	}
}

// TestCAPAdRegisteredWhileBehind: registering an ad runs no merge and does not
// touch a buffer that is behind; the buffer gets the ad's exact value — over
// the messages applied before, pending and evicted alike — when it catches up.
func TestCAPAdRegisteredWhileBehind(t *testing.T) {
	rs, err := NewRS(testScoring(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestCAP(t, DefaultCAPOptions())
	both := []Recommender{rs, e}
	for _, r := range both {
		r.AddUser(1)
		r.AddAd(simpleAd(100, 8, 0.5))
	}
	w := e.scoring.WindowCap
	now := base0
	for i := 0; i < w; i++ { // all on term 7: what the new ad will match
		now = now.Add(time.Minute)
		for _, r := range both {
			mustDeliver(t, r, feed.MessageID(i), now, 7, 1)
		}
	}
	e.BufferSize(1)
	for i := 0; i < 2; i++ { // two of them evicted, two on term 7 pending
		now = now.Add(time.Minute)
		for _, r := range both {
			mustDeliver(t, r, feed.MessageID(w+i), now, 7, 1)
		}
	}
	merges, rebuilds := e.CatchUps()
	for _, r := range both {
		if err := r.AddAd(simpleAd(101, 7, 0.4)); err != nil {
			t.Fatal(err)
		}
	}
	if m, r := e.CatchUps(); m != merges || r != rebuilds {
		t.Fatal("registering an ad caught a buffer up")
	}
	if got := e.TotalBufferEntries(); got != 0 {
		t.Fatalf("registering an ad wrote to a buffer that is behind: %d entries", got)
	}
	want, _ := rs.TopAds(1, 2, now)
	got, _ := e.TopAds(1, 2, now)
	if err := scoresCompatible(want, got, 1e-9); err != nil {
		t.Fatalf("after the catch-up: %v\nRS:  %+v\nCAP: %+v", err, want, got)
	}
	if got[0].Ad != 101 || got[0].Text <= 0 {
		t.Fatalf("the ad registered behind should lead on its text score: %+v", got)
	}
	if m, _ := e.CatchUps(); m != merges+1 {
		t.Fatalf("the read made %d merges, want 1", m-merges)
	}
}

// TestCAPRebuildEveryCountsMergedDeliveries: the drift cap counts deliveries,
// however many a pass merges, and the pass that would cross it rebuilds
// instead of merging.
func TestCAPRebuildEveryCountsMergedDeliveries(t *testing.T) {
	e := newTestCAP(t, CAPOptions{FanoutSharing: true, RebuildEvery: 5})
	e.AddUser(1)
	e.AddAd(simpleAd(100, 7, 0.5))
	now, id := base0, feed.MessageID(0)
	behind := func(n int) {
		for i := 0; i < n; i++ {
			id++
			now = now.Add(time.Minute)
			mustDeliver(t, e, id, now, 7, 1)
		}
		e.BufferSize(1)
	}
	want := func(merges, rebuilds uint64) {
		t.Helper()
		if m, r := e.CatchUps(); m != merges || r != rebuilds {
			t.Fatalf("%d merges and %d rebuilds, want %d and %d", m, r, merges, rebuilds)
		}
	}
	behind(1) // warms
	want(0, 1)
	behind(3) // 3 of 5
	want(1, 1)
	behind(1) // 4 of 5
	want(2, 1)
	behind(2) // would be 6: rebuilt
	want(2, 2)
	behind(4) // counted from the rebuild
	want(3, 2)
	if merged, skipped := e.Deliveries(); merged != 10 || skipped != 1 {
		t.Fatalf("%d deliveries merged and %d skipped, want 10 (two by the rebuild) and the 1 that found no buffer", merged, skipped)
	}
}

// TestCAPDeliverAllocatesPerMessageNotPerFollower: a delivery is a ring store
// per follower plus a record of what it owes, in lists that keep their
// capacity, and the references it takes are counted on the post's record,
// which its publisher made. So a DeliverPost allocates nothing, with every
// follower subscribed — read after each delivery — and with nobody reading.
// MemStats counts the whole process's allocations, so the test runs on one P,
// as testing.AllocsPerRun does: nothing else allocates during a Deliver.
func TestCAPDeliverAllocatesPerMessageNotPerFollower(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const users = 50
	for _, subscribed := range []bool{true, false} {
		e := newTestCAP(t, DefaultCAPOptions())
		e.AddAd(simpleAd(100, 7, 0.5))
		followers := make([]feed.UserID, users)
		for i := range followers {
			followers[i] = feed.UserID(i)
			e.AddUser(followers[i])
		}
		now := base0
		var mallocs uint64
		const rounds = 200
		for i := 0; i < rounds; i++ {
			now = now.Add(time.Second)
			p := &feed.Post{Message: post(feed.MessageID(i), now, 7, 1)}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := e.DeliverPost(p, followers); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i >= rounds/2 { // the windows are full and the lists have grown
				mallocs += after.Mallocs - before.Mallocs
			}
			if subscribed {
				for _, u := range followers {
					e.BufferSize(u)
				}
			}
		}
		if perDeliver := float64(mallocs) / (rounds / 2); perDeliver > 0 {
			t.Fatalf("subscribed %v: DeliverPost to %d followers allocates %.2f times, want none", subscribed, users, perDeliver)
		}
	}
}

// TestCAPChurnPastTheRecordRebuilds: registration touches no buffer, and a
// buffer settles ad by ad only as far back as the AdIndex's churn record
// reaches: churnCap ads behind, its next read settles them without a
// rebuild; one more, and that read rebuilds it exactly.
func TestCAPChurnPastTheRecordRebuilds(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	mustDeliver(t, e, 1, base0, 7, 1)
	e.BufferSize(1)
	id := adstore.AdID(0)
	for _, n := range []int{churnCap, churnCap + 1} {
		for range n {
			id++
			if err := e.AddAd(simpleAd(id, 7, 0.5)); err != nil {
				t.Fatal(err)
			}
		}
		if got := e.TotalBufferEntries(); got != int(id)-n {
			t.Fatalf("registering %d ads wrote to a buffer nobody read: %d entries", n, got)
		}
		merges, rebuilds := e.CatchUps()
		if got := e.BufferSize(1); got != int(id) {
			t.Fatalf("%d ads behind: %d buffer entries after the read, want all %d ads", n, got, id)
		}
		m, r := e.CatchUps()
		if wantRebuilds := rebuilds + uint64(n/(churnCap+1)); m != merges || r != wantRebuilds {
			t.Fatalf("%d ads behind: the read made %d merges and %d rebuilds, want 0 and %d", n, m-merges, r-rebuilds, wantRebuilds-rebuilds)
		}
	}
}

// TestColdUsersHoldNoBuffer: a user nobody has read holds no candidate
// buffer, and neither does one whose buffer turned cold: a read makes the
// buffer and chill drops it, so an unread user costs no dynBuf.
func TestColdUsersHoldNoBuffer(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddAd(simpleAd(100, 7, 0.5))
	e.AddUser(1)
	e.AddUser(2)
	w := e.scoring.WindowCap
	now, id := base0, feed.MessageID(0)
	deliverTo := func(users ...feed.UserID) {
		for i := 0; i < w; i++ {
			id++
			now = now.Add(time.Minute)
			mustDeliver(t, e, id, now, 7, users...)
		}
	}
	deliverTo(1, 2)
	if err := e.CheckIn(2, geo.Point{Lat: 5, Lng: 5}, now); err != nil {
		t.Fatal(err)
	}
	if e.users[1].buf != nil || e.users[2].buf != nil {
		t.Fatal("a user nobody has read holds a candidate buffer")
	}
	if got := e.BufferSize(1); got != 1 || e.users[1].buf == nil {
		t.Fatalf("the first read left %d entries, buffer made %v: want 1 in a buffer", got, e.users[1].buf != nil)
	}
	deliverTo(1) // every applied post leaves the window unread
	if e.users[1].buf != nil || e.TotalBufferEntries() != 0 || e.CachedMessages() != 0 {
		t.Fatalf("a chilled user holds a buffer (%v), %d entries, %d cached messages: want none",
			e.users[1].buf != nil, e.TotalBufferEntries(), e.CachedMessages())
	}
	if got := e.BufferSize(1); got != 1 {
		t.Fatalf("%d entries on the read after a chill, want 1", got)
	}
}

// TestTotalBufferEntriesMatchesAWalk is the oracle for the count of
// materialised entries a CAP keeps (and Engine.Stats reads without a shard
// lock): after every step of a random mix of posts, reads, check-ins and ad
// churn, it equals the sum over every user's buffer.
func TestTotalBufferEntriesMatchesAWalk(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	rng := rand.New(rand.NewSource(57))
	const users, vocab = 12, 20
	for u := feed.UserID(0); u < users; u++ {
		e.AddUser(u)
	}
	var live []adstore.AdID
	nextAd := adstore.AdID(1)
	addAd := func() {
		a := simpleAd(nextAd, 0, 0.05+0.9*rng.Float64())
		a.Vec = randVec(rng, 2, vocab)
		if rng.Intn(3) == 0 {
			a.Global, a.Target = false, geo.Circle{Center: geo.Point{Lat: 10 * rng.Float64(), Lng: 10 * rng.Float64()}, RadiusKm: 300}
		}
		if err := e.AddAd(a); err != nil {
			t.Fatal(err)
		}
		live, nextAd = append(live, nextAd), nextAd+1
	}
	for range 30 {
		addAd()
	}
	walk := func() (n int) {
		for _, st := range e.users {
			if st.buf != nil {
				n += len(st.buf.e)
			}
		}
		return n
	}
	now, most := base0, 0
	for step := 0; step < 4000; step++ {
		now = now.Add(time.Duration(rng.Intn(120)) * time.Second)
		u := feed.UserID(rng.Intn(users))
		switch op := rng.Intn(20); {
		case op < 10: // a post to 1–5 followers
			followers := make([]feed.UserID, 0, 5)
			for _, f := range rng.Perm(users)[:1+rng.Intn(5)] {
				followers = append(followers, feed.UserID(f))
			}
			if err := e.Deliver(feed.Message{ID: feed.MessageID(step), Time: now, Vec: randVec(rng, 3, vocab)}, followers); err != nil {
				t.Fatal(err)
			}
		case op < 16:
			if _, err := e.TopAds(u, 1+rng.Intn(5), now); err != nil {
				t.Fatal(err)
			}
		case op < 18:
			if err := e.CheckIn(u, geo.Point{Lat: 10 * rng.Float64(), Lng: 10 * rng.Float64()}, now); err != nil {
				t.Fatal(err)
			}
		case op == 18 || len(live) == 0:
			addAd()
		default:
			i := rng.Intn(len(live))
			if err := e.store.Remove(live[i]); err != nil {
				t.Fatal(err)
			}
			e.Unregister(live[i])
			live = slices.Delete(live, i, i+1)
		}
		got, want := e.TotalBufferEntries(), walk()
		if got != want {
			t.Fatalf("step %d: TotalBufferEntries %d, a walk over the buffers %d", step, got, want)
		}
		most = max(most, want)
	}
	merges, rebuilds := e.CatchUps()
	_, skipped := e.Deliveries()
	if most == 0 || merges == 0 || rebuilds == 0 || skipped == 0 {
		t.Fatalf("the mix exercised too little: at most %d entries, %d merges, %d rebuilds, %d deliveries skipped", most, merges, rebuilds, skipped)
	}
	t.Logf("at most %d entries; %d merges, %d rebuilds, %d deliveries skipped", most, merges, rebuilds, skipped)
}
