package caar

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"caar/internal/feed"
)

// TestPostBatchMatchesSequential checks that a PostBatch call leaves the
// engine in the same observable state as the equivalent sequence of Post
// calls: same recommendations, same delivery counters, same trending terms.
func TestPostBatchMatchesSequential(t *testing.T) {
	build := func(t *testing.T) *Engine {
		e := openEngine(t, testConfig())
		for _, u := range []string{"alice", "bob", "carol"} {
			if err := e.AddUser(u); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range [][2]string{{"alice", "bob"}, {"carol", "bob"}, {"alice", "carol"}} {
			if err := e.Follow(f[0], f[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AddAd(Ad{ID: "shoes", Text: "marathon running shoes with cushioned sole", Bid: 0.4}); err != nil {
			t.Fatal(err)
		}
		if err := e.AddAd(Ad{ID: "pizza", Text: "fresh pizza delivered hot tonight", Bid: 0.4}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	posts := []PostRequest{
		{Author: "bob", Text: "great marathon today, my running shoes held up", At: morning},
		{Author: "carol", Text: "pizza night after the marathon", At: morning.Add(time.Minute)},
		{Author: "bob", Text: "cushioned sole makes all the difference", At: morning.Add(2 * time.Minute)},
	}

	seq := build(t)
	for _, p := range posts {
		if err := seq.Post(p.Author, p.Text, p.At); err != nil {
			t.Fatal(err)
		}
	}
	bat := build(t)
	for i, err := range bat.PostBatch(posts) {
		if err != nil {
			t.Fatalf("batch item %d: %v", i, err)
		}
	}

	for _, u := range []string{"alice", "bob", "carol"} {
		want, err := seq.Recommend(u, 2, morning.Add(3*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		got, err := bat.Recommend(u, 2, morning.Add(3*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("user %s: batch returned %d recs, sequential %d", u, len(got), len(want))
		}
		for i := range got {
			if got[i].AdID != want[i].AdID {
				t.Errorf("user %s rec %d: batch %s, sequential %s", u, i, got[i].AdID, want[i].AdID)
			}
		}
	}
	if s, b := seq.Stats().PostsDelivered, bat.Stats().PostsDelivered; s != b {
		t.Errorf("posts delivered: sequential %d, batch %d", s, b)
	}
}

// TestPostBatchPerItemErrors checks that an unknown author inside a batch
// fails only its own slot: the other posts still deliver.
func TestPostBatchPerItemErrors(t *testing.T) {
	e := openEngine(t, testConfig())
	for _, u := range []string{"alice", "bob"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	errs := e.PostBatch([]PostRequest{
		{Author: "bob", Text: "first post", At: morning},
		{Author: "nobody", Text: "ghost post", At: morning},
		{Author: "bob", Text: "second post", At: morning},
	})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid batch items failed: %v, %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], ErrUnknownUser) {
		t.Fatalf("unknown author: got %v, want ErrUnknownUser", errs[1])
	}
	if got := e.Stats().PostsDelivered; got != 2 {
		t.Fatalf("posts delivered = %d, want 2", got)
	}
}

// TestCheckInBatchPerItemErrors checks per-item error reporting and that the
// batched form updates location context exactly like the single-item form.
func TestCheckInBatchPerItemErrors(t *testing.T) {
	e := openEngine(t, testConfig())
	if err := e.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	errs := e.CheckInBatch([]CheckInRequest{
		{User: "alice", Lat: 1.5, Lng: 1.5, At: morning},
		{User: "nobody", Lat: 1.5, Lng: 1.5, At: morning},
		{User: "alice", Lat: 99, Lng: 0, At: morning}, // outside the region
	})
	if errs[0] != nil {
		t.Fatalf("valid check-in failed: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrUnknownUser) {
		t.Fatalf("unknown user: got %v, want ErrUnknownUser", errs[1])
	}
	if errs[2] == nil {
		t.Fatal("out-of-region check-in accepted")
	}
	if got := e.Stats().CheckIns; got != 1 {
		t.Fatalf("check-ins = %d, want 1", got)
	}
}

// TestFailedDeliveryLeavesNoTrendingTelemetry is the regression test for the
// telemetry-ordering bug: Engine.Post used to record trending terms before
// delivery, so a failed fan-out polluted Trending with phantom counts for a
// post that no feed ever received.
func TestFailedDeliveryLeavesNoTrendingTelemetry(t *testing.T) {
	e := openEngine(t, testConfig())
	for _, u := range []string{"bob", "carol"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	// Control: a successful post's terms must show up in Trending, proving
	// the text pipeline keeps the marker words we assert on below.
	if err := e.Post("bob", "zanzibar zanzibar zanzibar", morning); err != nil {
		t.Fatal(err)
	}
	if !trendingHas(t, e, "zanzibar") {
		t.Fatal("control term missing from Trending; marker words do not survive the text pipeline")
	}

	// Wire a follower into the graph that no shard knows about, so carol's
	// fan-out fails validation inside the core engine.
	ghost := feed.UserID(1 << 20)
	carol, err := e.lookupUser("carol")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.graph.Follow(ghost, carol); err != nil {
		t.Fatal(err)
	}

	before := e.Stats().PostsDelivered
	if err := e.Post("carol", "quokka quokka quokka", morning); err == nil {
		t.Fatal("post with unregistered follower succeeded, want delivery error")
	}
	if trendingHas(t, e, "quokka") {
		t.Fatal("failed delivery left phantom term counts in Trending")
	}
	if got := e.Stats().PostsDelivered; got != before {
		t.Fatalf("failed delivery counted as delivered: %d -> %d", before, got)
	}
}

func trendingHas(t *testing.T, e *Engine, term string) bool {
	t.Helper()
	terms, err := e.Trending(Morning, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range terms {
		if tt.Term == term {
			return true
		}
	}
	return false
}

// TestSlowOnRecommendDoesNotHoldShardLock is the regression test for the
// continuous-delivery callback bug: OnRecommend used to run while holding
// the shard lock, so one slow consumer stalled the shard's entire fan-out
// and every writer queued behind it. The callback must run outside the
// lock: while it blocks, a check-in on the same shard must still complete.
func TestSlowOnRecommendDoesNotHoldShardLock(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	cfg := testConfig()
	cfg.Shards = 1
	cfg.ContinuousK = 2
	cfg.OnRecommend = func(user string, recs []Recommendation) {
		entered <- struct{}{}
		<-release
	}
	e := openEngine(t, cfg)
	for _, u := range []string{"alice", "bob"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "shoes", Text: "marathon running shoes", Bid: 0.4}); err != nil {
		t.Fatal(err)
	}

	postDone := make(chan error, 1)
	go func() {
		postDone <- e.Post("bob", "marathon running shoes forever", morning)
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("OnRecommend never invoked")
	}

	// The callback is now blocked. A writer on the same (only) shard must
	// not be stuck behind it.
	ciDone := make(chan error, 1)
	go func() {
		ciDone <- e.CheckIn("alice", 1.5, 1.5, morning)
	}()
	select {
	case err := <-ciDone:
		if err != nil {
			t.Fatalf("check-in failed: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("check-in blocked behind a slow OnRecommend callback: callback still holds the shard lock")
	}

	// Unblock and drain the remaining callbacks so Post can finish.
	go func() {
		for range entered {
		}
	}()
	close(release)
	if err := <-postDone; err != nil {
		t.Fatalf("post failed: %v", err)
	}
}

// TestPostBatchContinuousOncePerUser checks the batched continuous-delivery
// contract: one OnRecommend callback per affected user per batch, not one
// per message.
func TestPostBatchContinuousOncePerUser(t *testing.T) {
	var mu = make(chan struct{}, 1)
	calls := map[string]int{}
	cfg := testConfig()
	cfg.Shards = 1
	cfg.ContinuousK = 2
	cfg.OnRecommend = func(user string, recs []Recommendation) {
		mu <- struct{}{}
		calls[user]++
		<-mu
	}
	e := openEngine(t, cfg)
	for _, u := range []string{"alice", "bob"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "shoes", Text: "marathon running shoes", Bid: 0.4}); err != nil {
		t.Fatal(err)
	}
	var batch []PostRequest
	for i := 0; i < 5; i++ {
		batch = append(batch, PostRequest{Author: "bob", Text: fmt.Sprintf("running update %d", i), At: morning})
	}
	for i, err := range e.PostBatch(batch) {
		if err != nil {
			t.Fatalf("batch item %d: %v", i, err)
		}
	}
	for _, u := range []string{"alice", "bob"} {
		if calls[u] != 1 {
			t.Errorf("user %s got %d continuous callbacks for one batch, want 1", u, calls[u])
		}
	}
}

// TestPostBatchContinuousSkipsFailedItems: in a batch of several messages, a
// shard refreshes the recipients of the messages it delivered and no one
// reached only by a message whose delivery failed — though the refresh slabs
// were sized, before delivery, for every recipient.
func TestPostBatchContinuousSkipsFailedItems(t *testing.T) {
	calls := map[string]int{}
	cfg := testConfig()
	cfg.Shards = 1
	cfg.ContinuousK = 2
	cfg.OnRecommend = func(user string, _ []Recommendation) { calls[user]++ }
	e := openEngine(t, cfg)
	for _, u := range []string{"alice", "bob", "carol", "dave"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range [][2]string{{"alice", "bob"}, {"dave", "carol"}} {
		if err := e.Follow(f[0], f[1]); err != nil {
			t.Fatal(err)
		}
	}
	// A follower no shard knows fails carol's delivery inside the core engine.
	ghost := feed.UserID(1 << 20)
	carol, err := e.lookupUser("carol")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.graph.Follow(ghost, carol); err != nil {
		t.Fatal(err)
	}
	errs := e.PostBatch([]PostRequest{
		{Author: "bob", Text: "running shoes", At: morning},
		{Author: "carol", Text: "running socks", At: morning},
	})
	if errs[0] != nil || errs[1] == nil {
		t.Fatalf("errors %v, want bob's post delivered and carol's failed", errs)
	}
	want := map[string]int{"alice": 1, "bob": 1}
	if !maps.Equal(calls, want) {
		t.Fatalf("continuous callbacks %v, want %v", calls, want)
	}
}

// TestUnreadFeedsHoldNoBufferAndNoCache: candidate buffers and shared delta
// lists exist for the feeds somebody reads. Forty users in a ring of follows
// each receive 4 × WindowSize posts through PostBatch with nobody reading:
// nothing is materialised. Reading every user then builds what the eager
// engine of commit 63d71a1 held all along for the same sequence: 1 789
// buffer entries, and a delta list for each of the 80 resident messages
// (that engine counted 160: every message once per shard holding it).
func TestUnreadFeedsHoldNoBufferAndNoCache(t *testing.T) {
	const (
		users         = 40
		parentEntries = 1789
		parentCached  = 80
	)
	cfg := testConfig()
	cfg.Shards = 2
	e := openEngine(t, cfg)
	topics := []string{"marathon shoes", "fresh pizza", "espresso beans", "mountain bike", "vinyl records", "garden tools", "winter jacket",
		"guitar lessons", "sushi dinner", "yoga studio", "camping tent", "chess club", "sailing boat", "pottery class", "jazz concert", "ski resort"}
	name := func(i int) string { return fmt.Sprintf("u%02d", i%users) }
	for i := 0; i < users; i++ {
		if err := e.AddUser(name(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < users; i++ {
		for _, d := range []int{1, 2, 3} { // each user follows the next three
			if err := e.Follow(name(i), name(i+d)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 60; i++ {
		ad := Ad{ID: fmt.Sprintf("ad%02d", i), Text: topics[i%len(topics)] + " " + topics[(7*i+3)%len(topics)], Bid: 0.1 + 0.01*float64(i)}
		if err := e.AddAd(ad); err != nil {
			t.Fatal(err)
		}
	}
	// A feed holds the author's own posts and those of three followees: one
	// round of everyone posting delivers four messages to every window.
	at := morning
	for round := 0; round < cfg.WindowSize; round++ {
		batch := make([]PostRequest, users)
		for i := range batch {
			at = at.Add(time.Second)
			batch[i] = PostRequest{Author: name(i), Text: topics[(3*i+round)%len(topics)] + " today", At: at}
		}
		for i, err := range e.PostBatch(batch) {
			if err != nil {
				t.Fatalf("round %d item %d: %v", round, i, err)
			}
		}
	}
	if st := e.Stats(); st.CandidateBufferEntries != 0 || st.CachedMessages != 0 {
		t.Fatalf("nobody has read a feed, yet %d buffer entries and %d cached messages are held", st.CandidateBufferEntries, st.CachedMessages)
	}
	for i := 0; i < users; i++ {
		if _, err := e.Recommend(name(i), 3, at); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	t.Logf("after reading every user: %d buffer entries, %d cached messages", st.CandidateBufferEntries, st.CachedMessages)
	within := func(got, want int) bool { return 20*got >= 19*want && 20*got <= 21*want }
	if !within(st.CandidateBufferEntries, parentEntries) || !within(st.CachedMessages, parentCached) {
		t.Fatalf("every feed read: %d buffer entries and %d cached messages, want within 5 %% of the eager engine's %d and %d",
			st.CandidateBufferEntries, st.CachedMessages, parentEntries, parentCached)
	}
}

// shardWindowEntries is the number of window-resident messages on one shard.
func shardWindowEntries(e *Engine, si int) int {
	sh := e.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, entries := sh.eng.(interface{ WindowStats() (int, int) }).WindowStats()
	return entries
}

// TestFanoutDuringFollowerChurnDeliversOnce is the regression test for the
// shared follower list: Unfollow used to swap-remove inside the slice a
// concurrent fan-out was reading with no lock held — a data race (run under
// -race), and a follower moved into the freed slot could be read twice. Two
// posters post while churners unfollow and re-follow them; the posters and
// their steady followers live on shard 0 and the churners on shard 1, so shard
// 0's window occupancy is exact: every steady feed holds every post once.
func TestFanoutDuringFollowerChurnDeliversOnce(t *testing.T) {
	const posts = 300
	cfg := testConfig()
	cfg.Shards = 2
	cfg.WindowSize = 2 * posts // nothing is evicted
	e := openEngine(t, cfg)
	var steady, churners []string
	for i := 0; i < 16; i++ {
		h := fmt.Sprintf("u%02d", i)
		if err := e.AddUser(h); err != nil {
			t.Fatal(err)
		}
		if uid, _ := e.lookupUser(h); int(uid)%2 == 0 {
			steady = append(steady, h)
		} else {
			churners = append(churners, h)
		}
	}
	posters, steady := steady[:2], steady[2:]
	// Churners first: a steady follower at the end of the list is what a
	// swap-remove moved.
	for _, f := range append(append([]string(nil), churners...), steady...) {
		for _, p := range posters {
			if err := e.Follow(f, p); err != nil {
				t.Fatal(err)
			}
		}
	}

	var posting, churning sync.WaitGroup
	done := make(chan struct{})
	for _, c := range churners {
		churning.Add(1)
		go func() {
			defer churning.Done()
			for {
				for _, p := range posters {
					if err := e.Unfollow(c, p); err != nil {
						t.Error(err)
					}
				}
				for _, p := range posters {
					if err := e.Follow(c, p); err != nil {
						t.Error(err)
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for _, p := range posters {
		posting.Add(1)
		go func() {
			defer posting.Done()
			for i := 0; i < posts; i++ {
				if err := e.Post(p, "marathon shoes", morning.Add(time.Duration(i)*time.Second)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	posting.Wait()
	close(done)
	churning.Wait()

	if got := e.Stats().PostsDelivered; got != 2*posts {
		t.Errorf("%d posts delivered, want %d", got, 2*posts)
	}
	// Each poster's own feed holds its posts, each steady feed both posters'.
	want := 2*posts + len(steady)*2*posts
	if got := shardWindowEntries(e, 0); got != want {
		t.Errorf("steady feeds hold %d messages, want exactly %d: a message was delivered twice or not at all", got, want)
	}
}

// TestAddUserIsVisibleOnlyOnceItCanReceive is the regression test for the
// registration order: AddUser used to publish the handle before the shard knew
// the user, so a post by a handle ValidateUser had just accepted could fail its
// whole fan-out with ErrUnknownUser — an acknowledged write that is not applied.
func TestAddUserIsVisibleOnlyOnceItCanReceive(t *testing.T) {
	e := openEngine(t, testConfig())

	// With the shard lock held the shard cannot learn the user, so the handle
	// must stay unknown: AddUser gets as far as holding dirMu and waits.
	sh := e.shards[0]
	sh.mu.Lock()
	added := make(chan error, 1)
	go func() { added <- e.AddUser("held") }()
	for waiting := 0; waiting < 1000; runtime.Gosched() {
		if e.dirMu.TryLock() {
			e.dirMu.Unlock()
		} else {
			waiting++ // AddUser is inside, and stays there
		}
		if e.ValidateUser("held") == nil {
			t.Fatal("the handle is visible while its shard cannot have registered it")
		}
	}
	sh.mu.Unlock()
	if err := <-added; err != nil {
		t.Fatal(err)
	}

	// One goroutine adds users, this one posts as each the moment ValidateUser
	// accepts it, a third keeps the shard lock busy.
	const users = 2000
	handle := func(i int) string { return fmt.Sprintf("u%04d", i) }
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < users; i++ {
			if err := e.AddUser(handle(i)); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				e.Stats()
			}
		}
	}()
	for i := 0; i < users; i++ {
		for e.ValidateUser(handle(i)) != nil {
			runtime.Gosched()
		}
		if err := e.PostBatch([]PostRequest{{Author: handle(i), At: morning}})[0]; err != nil {
			t.Errorf("post by %s, which ValidateUser had accepted: %v", handle(i), err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestPostBatchAllocationsDoNotGrowWithFanout pins the fan-out pass's
// allocations: recipients go straight from the follower list into one slice per
// shard, so a post to 200 followers allocates as often as a post to one.
func TestPostBatchAllocationsDoNotGrowWithFanout(t *testing.T) {
	e := openEngine(t, testConfig())
	for _, u := range []string{"small", "big"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		f := fmt.Sprintf("f%03d", i)
		if err := e.AddUser(f); err != nil {
			t.Fatal(err)
		}
		if err := e.Follow(f, "big"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Follow("f000", "small"); err != nil {
		t.Fatal(err)
	}
	allocs := func(author string) float64 {
		reqs := []PostRequest{{Author: author, Text: "marathon shoes", At: morning}}
		for i := 0; i < 2*testConfig().WindowSize; i++ { // windows full: steady state
			e.PostBatch(reqs)
		}
		return testing.AllocsPerRun(50, func() { e.PostBatch(reqs) })
	}
	small, big := allocs("small"), allocs("big")
	if math.Abs(big-small) > 2 {
		t.Fatalf("a post allocates %.0f times for 1 follower and %.0f for 200", small, big)
	}
}

// TestContinuousPostAllocationsDoNotGrowWithFanout: the continuous refreshes
// of a post are handed out as sub-slices of one results slab and one
// recommendations slab per shard, so a post that refreshes 200 followers
// allocates what one that refreshes 2 does. Each refresh used to allocate its
// core result and its public copy: two per follower.
func TestContinuousPostAllocationsDoNotGrowWithFanout(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	cfg.ContinuousK = 3
	var (
		mu   sync.Mutex
		kept [][]Recommendation
	)
	cfg.OnRecommend = func(_ string, recs []Recommendation) {
		mu.Lock()
		defer mu.Unlock()
		if len(kept) < 2 {
			kept = append(kept, recs) // a callback may keep its slice
		}
	}
	e := openEngine(t, cfg)
	for _, u := range []string{"small", "big"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		f := fmt.Sprintf("f%03d", i)
		if err := e.AddUser(f); err != nil {
			t.Fatal(err)
		}
		if err := e.Follow(f, "big"); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"f000", "f001"} { // one follower on each shard
		if err := e.Follow(f, "small"); err != nil {
			t.Fatal(err)
		}
	}
	for _, ad := range []string{"marathon shoes", "running socks", "trail shoes"} {
		if err := e.AddAd(Ad{ID: ad, Text: ad, Bid: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(author string) float64 {
		reqs := []PostRequest{{Author: author, Text: "marathon shoes", At: morning}}
		for i := 0; i < 2*cfg.WindowSize; i++ { // windows full, views built: steady state
			e.PostBatch(reqs)
		}
		return testing.AllocsPerRun(50, func() { e.PostBatch(reqs) })
	}
	small, big := allocs("small"), allocs("big")
	if math.Abs(big-small) > 2 {
		t.Fatalf("a continuous post allocates %.0f times for 2 followers and %.0f for 200", small, big)
	}
	if len(kept) != 2 || len(kept[0]) == 0 || cap(kept[0]) != len(kept[0]) {
		t.Fatalf("the first two refreshes handed out %v: want capped, non-empty slices", kept)
	}
}

// shardedPostAllocs opens an engine of the given shard count and ContinuousK
// where "big" has 64 followers, eight on each of eight shards, brings it to a
// steady state — windows full and, with refreshes, views built — and returns
// what one post by big allocates.
func shardedPostAllocs(t *testing.T, shards, k int) float64 {
	t.Helper()
	return postAllocs(t, shards, k, 64)
}

// postAllocs is shardedPostAllocs with big's follower count given.
func postAllocs(t *testing.T, shards, k, followers int) float64 {
	t.Helper()
	e, reqs := postFixture(t, shards, k, followers)
	return testing.AllocsPerRun(50, func() { e.PostBatch(reqs) })
}

// postFixture is postAllocs' engine, warmed, and the post it measures.
func postFixture(t *testing.T, shards, k, followers int) (*Engine, []PostRequest) {
	t.Helper()
	cfg := testConfig()
	cfg.Shards = shards
	cfg.ContinuousK = k
	cfg.OnRecommend = func(string, []Recommendation) {}
	e := openEngine(t, cfg)
	if err := e.AddUser("big"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < followers; i++ {
		f := fmt.Sprintf("f%03d", i)
		if err := e.AddUser(f); err != nil {
			t.Fatal(err)
		}
		if err := e.Follow(f, "big"); err != nil {
			t.Fatal(err)
		}
	}
	for _, ad := range []string{"marathon shoes", "running socks", "trail shoes"} {
		if err := e.AddAd(Ad{ID: ad, Text: ad, Bid: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	reqs := []PostRequest{{Author: "big", Text: "marathon shoes", At: morning}}
	for i := 0; i < 2*cfg.WindowSize; i++ {
		e.PostBatch(reqs)
	}
	return e, reqs
}

// TestFullBatchKeepsItsScratch: a 256-post batch, the most the ingest applier
// drains and journal replay applies at once, leaves its scratch for the next,
// so the second of two makes none: the kept scratch is the one the first
// left, and no share's slices grew. A bound of 1 024 elements of a kind,
// which this batch's 7 936 recipients pass, threw it away after every batch.
func TestFullBatchKeepsItsScratch(t *testing.T) {
	for _, k := range []int{0, 5} {
		e, one := postFixture(t, 4, k, 30)
		reqs := slices.Repeat(one, 256)
		caps := func(s *batchScratch) (c []int) {
			for _, w := range s.work {
				c = append(c, cap(w.users), cap(w.spans), cap(w.scored), cap(w.out))
			}
			return append(c, cap(s.posts))
		}
		e.PostBatch(reqs)
		first := e.scratch.Load()
		if first == nil {
			t.Fatalf("k %d: the engine kept no scratch after a 256-post batch", k)
		}
		was := caps(first)
		e.PostBatch(reqs)
		if got := e.scratch.Load(); got != first {
			t.Fatalf("k %d: the second 256-post batch made a scratch of its own", k)
		} else if now := caps(got); !slices.Equal(now, was) {
			t.Fatalf("k %d: the second 256-post batch grew its shares: capacities %v, were %v", k, now, was)
		}
	}
}

// TestColdScratchMakesEachShareOnce: a batch that finds no kept scratch (one
// runs already, or the last outgrew maxKeptScratch, as a batch of thousands
// of posts does) sizes each share from the follower counts, so a
// push-only post makes the scratch, its shard table and posts, and each
// share's users and spans once: 2 a shard over the 3 a kept scratch costs
// plus 3. Grown by append alone from empty, the shares cost 39 on 8 shards.
func TestColdScratchMakesEachShareOnce(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		e, reqs := postFixture(t, shards, 0, 64)
		got := testing.AllocsPerRun(50, func() {
			e.scratch.Store(nil)
			e.PostBatch(reqs)
		})
		if want := float64(3 + 3 + 2*shards); !raceEnabled && got > want {
			t.Errorf("a push-only post on a cold scratch allocates %.1f times on %d shards: want at most %.0f", got, shards, want)
		}
	}
}

// TestPushOnlyPostAllocationsDoNotGrowWithShards: a push-only post (the
// ingest applier's) allocates what it hands out or keeps — its errors, its
// message vector and its record, which every window it reaches points at —
// and works in the engine's reused batch scratch, so it allocates as often on
// 8 shards as on one. The scratch made per batch cost five more: the
// messages, the batch, the shard table, the recipients and the spans.
func TestPushOnlyPostAllocationsDoNotGrowWithShards(t *testing.T) {
	one := shardedPostAllocs(t, 1, 0)
	if !raceEnabled && one != 3 {
		t.Errorf("a push-only post allocates %.1f times on one shard: want 3, its errors, its vector and its record", one)
	}
	for _, shards := range []int{2, 4, 8} {
		if got := shardedPostAllocs(t, shards, 0); got != one {
			t.Errorf("a push-only post allocates %.1f times on %d shards and %.1f on one", got, shards, one)
		}
	}
}

// TestContinuousPostAllocationsDoNotGrowWithShards: a batch's refresh slabs
// are the scratch's or cut once per batch, one piece per shard, and a busy
// shard's goroutine takes its share from a queue rather than a closure, so a
// continuous post that reaches all of 2, 4 or 8 shards allocates what it does
// on one; under the race detector a goroutine start may allocate once. What
// is left is what a post hands out or keeps: its errors, its vector, its
// recommendations slab, and its record with the delta list computed for it.
// Slabs made per shard cost three allocations a busy shard.
func TestContinuousPostAllocationsDoNotGrowWithShards(t *testing.T) {
	one := shardedPostAllocs(t, 1, 3)
	if !raceEnabled && one != 5 {
		t.Errorf("a continuous post allocates %.1f times on one shard: want 5", one)
	}
	for _, shards := range []int{2, 4, 8} {
		got, want := shardedPostAllocs(t, shards, 3), one
		if raceEnabled {
			want += float64(shards - 1)
		}
		if got > want {
			t.Errorf("a continuous post allocates %.1f times on %d shards and %.1f on one: want at most %.1f", got, shards, one, want)
		}
	}
}

// TestContinuousPostKeepsItsScratchPastKRefreshes: the scratch bound counts
// refreshes, not the k results of each, so a continuous post to 300 followers
// at k 5 — 1 505 results, past the bound's 1 024 — keeps its scratch and
// allocates what a post to 64 does. Comparing its results with the bound
// threw the scratch away after every such post: 13 allocations on one shard.
func TestContinuousPostKeepsItsScratchPastKRefreshes(t *testing.T) {
	for _, shards := range []int{1, 2} {
		small, big := postAllocs(t, shards, 5, 64), postAllocs(t, shards, 5, 300)
		if big > small || !raceEnabled && big != 5 {
			t.Errorf("a continuous post at k 5 on %d shards allocates %.1f times for 300 followers and %.1f for 64: want 5", shards, big, small)
		}
	}
}

// TestCheckInBatchAllocationsDoNotGrowWithShards: a CheckInBatch groups its
// check-ins in the shares of the engine's reused batch scratch, so a batch
// that reaches every shard allocates its errors alone, on 8 shards as on one.
func TestCheckInBatchAllocationsDoNotGrowWithShards(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := testConfig()
		cfg.Shards = shards
		e := openEngine(t, cfg)
		var reqs []CheckInRequest
		for i := 0; i < 32; i++ {
			u := fmt.Sprintf("u%02d", i)
			if err := e.AddUser(u); err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, CheckInRequest{User: u, Lat: 1 + float64(i%4)/8, Lng: 1.5, At: morning})
		}
		for _, err := range e.CheckInBatch(reqs) {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(50, func() { e.CheckInBatch(reqs) }); got != 1 {
			t.Errorf("a check-in batch allocates %.1f times on %d shards: want 1, its errors", got, shards)
		}
	}
}

// TestConcurrentPostBatchesHandOutIntactRecommendations: batches that run at
// once on one engine share no scratch — the one that finds the engine's
// taken makes its own — and the recommendations a callback may keep are
// never written by a later batch.
func TestConcurrentPostBatchesHandOutIntactRecommendations(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	cfg.ContinuousK = 3
	type keptRecs struct{ slice, copy []Recommendation }
	var (
		mu   sync.Mutex
		kept []keptRecs
	)
	cfg.OnRecommend = func(_ string, recs []Recommendation) {
		mu.Lock()
		defer mu.Unlock()
		kept = append(kept, keptRecs{slice: recs, copy: slices.Clone(recs)})
	}
	e := openEngine(t, cfg)
	const authors = 4
	for a := 0; a < authors; a++ {
		if err := e.AddUser(fmt.Sprintf("a%d", a)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 24; i++ {
		f := fmt.Sprintf("f%03d", i)
		if err := e.AddUser(f); err != nil {
			t.Fatal(err)
		}
		for a := 0; a < authors; a++ {
			if (i+a)%3 != 0 {
				if err := e.Follow(f, fmt.Sprintf("a%d", a)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ads := []string{"marathon shoes", "running socks", "trail shoes", "city bikes", "rain jackets"}
	for _, ad := range ads {
		if err := e.AddAd(Ad{ID: ad, Text: ad, Bid: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < authors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				reqs := []PostRequest{
					{Author: fmt.Sprintf("a%d", g), Text: ads[(g+i)%len(ads)], At: morning.Add(time.Duration(i) * time.Second)},
					{Author: fmt.Sprintf("a%d", (g+1)%authors), Text: ads[i%len(ads)], At: morning.Add(time.Duration(i) * time.Second)},
				}
				for _, err := range e.PostBatch(reqs) {
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(kept) == 0 {
		t.Fatal("no refresh reached the callback")
	}
	for i, k := range kept {
		if !slices.Equal(k.slice, k.copy) {
			t.Fatalf("refresh %d of %d was overwritten after its callback: %v, handed out as %v", i, len(kept), k.slice, k.copy)
		}
	}
}
