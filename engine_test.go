package caar

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caar/internal/core"
	"caar/internal/feed"
	"caar/obs"
)

var morning = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.DecayHalfLife = 30 * time.Minute
	cfg.WindowSize = 8
	return cfg
}

func openEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOpenValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Region = Region{MinLat: 5, MaxLat: 1}
	if _, err := Open(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad region: %v", err)
	}
	cfg = testConfig()
	cfg.ContinuousK = 3 // no callback
	if _, err := Open(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("continuous without callback: %v", err)
	}
	cfg = testConfig()
	cfg.WindowSize = 0
	if _, err := Open(cfg); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestEndToEndRecommendation(t *testing.T) {
	e := openEngine(t, testConfig())
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "shoes", Text: "marathon running shoes with cushioned sole", Bid: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "pizza", Text: "fresh pizza delivered hot tonight", Bid: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := e.Post("bob", "great marathon today, my running shoes held up", morning); err != nil {
		t.Fatal(err)
	}

	recs, err := e.Recommend("alice", 2, morning)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].AdID != "shoes" {
		t.Fatalf("recs = %+v, want shoes first", recs)
	}
	if recs[0].Text <= recs[1].Text {
		t.Fatalf("shoes should win on text: %+v", recs)
	}
	// carol follows nobody: her feed is empty, ranking is bid-only ties.
	recs, err = e.Recommend("carol", 2, morning)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Text != 0 {
			t.Fatalf("carol has no feed, text must be 0: %+v", r)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	e := openEngine(t, testConfig())
	e.AddUser("alice")
	if err := e.AddUser("alice"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup user: %v", err)
	}
	if err := e.AddUser(""); err == nil {
		t.Fatal("empty handle accepted")
	}
	if err := e.Follow("alice", "ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("follow ghost: %v", err)
	}
	if err := e.Post("ghost", "hi", morning); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("post as ghost: %v", err)
	}
	if _, err := e.Recommend("ghost", 3, morning); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("recommend ghost: %v", err)
	}
	if _, err := e.Recommend("alice", 0, morning); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("k=0: %v", err)
	}
	if err := e.AddAd(Ad{ID: "", Text: "x y z", Bid: 0.5}); err == nil {
		t.Fatal("empty ad ID accepted")
	}
	if err := e.AddAd(Ad{ID: "a1", Text: "the of and", Bid: 0.5}); err == nil {
		t.Fatal("stopword-only ad accepted")
	}
	if err := e.AddAd(Ad{ID: "a1", Text: "great sneakers", Bid: 0}); err == nil {
		t.Fatal("zero bid accepted")
	}
	if err := e.AddAd(Ad{ID: "a1", Text: "great sneakers", Bid: 0.5, Slots: []Slot{"brunch"}}); err == nil {
		t.Fatal("unknown slot accepted")
	}
	if err := e.AddAd(Ad{ID: "a1", Text: "great sneakers", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "a1", Text: "more sneakers", Bid: 0.5}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup ad: %v", err)
	}
	if err := e.RemoveAd("nope"); !errors.Is(err, ErrUnknownAd) {
		t.Fatalf("remove unknown: %v", err)
	}
	if _, err := e.ServeImpression("", "nope", morning); !errors.Is(err, ErrUnknownAd) {
		t.Fatalf("serve unknown: %v", err)
	}
	if err := e.CheckIn("alice", 99, 0, morning); err == nil {
		t.Fatal("out-of-region check-in accepted")
	}
}

func TestFailedAdDoesNotLeakID(t *testing.T) {
	e := openEngine(t, testConfig())
	if err := e.AddAd(Ad{ID: "bad", Text: "sneakers", Bid: 2}); err == nil {
		t.Fatal("bid 2 accepted")
	}
	// The name must be reusable after the failed insert.
	if err := e.AddAd(Ad{ID: "bad", Text: "sneakers", Bid: 0.5}); err != nil {
		t.Fatalf("name not released: %v", err)
	}
}

func TestGeoTargetedRecommendation(t *testing.T) {
	e := openEngine(t, testConfig())
	e.AddUser("alice")
	if err := e.AddAd(Ad{
		ID: "local-cafe", Text: "espresso and pastries downtown",
		Target: &Target{Lat: 2, Lng: 2, RadiusKm: 20}, Bid: 0.3,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "vpn", Text: "fast vpn service anywhere", Bid: 0.3}); err != nil {
		t.Fatal(err)
	}
	e.Post("alice", "need espresso and pastries right now", morning)

	// No location: only the global ad is eligible.
	recs, _ := e.Recommend("alice", 5, morning)
	if len(recs) != 1 || recs[0].AdID != "vpn" {
		t.Fatalf("no-location recs = %+v", recs)
	}
	// Inside the circle: the café wins on text + geo.
	if err := e.CheckIn("alice", 2.01, 2.01, morning); err != nil {
		t.Fatal(err)
	}
	recs, _ = e.Recommend("alice", 5, morning)
	if len(recs) != 2 || recs[0].AdID != "local-cafe" {
		t.Fatalf("in-range recs = %+v", recs)
	}
	// Far away: café drops out again.
	if err := e.CheckIn("alice", 3.9, 3.9, morning); err != nil {
		t.Fatal(err)
	}
	recs, _ = e.Recommend("alice", 5, morning)
	if len(recs) != 1 || recs[0].AdID != "vpn" {
		t.Fatalf("out-of-range recs = %+v", recs)
	}
}

func TestCampaignBudgetIntegration(t *testing.T) {
	e := openEngine(t, testConfig())
	e.AddUser("alice")
	flightEnd := morning.Add(time.Hour)
	if err := e.AddCampaign("summer", 1.0, morning, flightEnd); err != nil {
		t.Fatal(err)
	}
	if err := e.AddCampaign("summer", 1.0, morning, flightEnd); err == nil {
		t.Fatal("dup campaign accepted")
	}
	if err := e.AddAd(Ad{ID: "sale", Text: "summer sneaker sale", Campaign: "summer", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "nocamp", Text: "unbudgeted sneakers", Bid: 0.1}); err != nil {
		t.Fatal(err)
	}
	mid := morning.Add(40 * time.Minute)
	ok, err := e.ServeImpression("", "sale", mid)
	if err != nil || !ok {
		t.Fatalf("first impression: %v %v", ok, err)
	}
	// 0.5 of 1.0 spent; at 40 min only ~0.67 released → next 0.5 denied.
	ok, err = e.ServeImpression("", "sale", mid)
	if err != nil || ok {
		t.Fatalf("second impression should be paced out: %v %v", ok, err)
	}
	// Paced-out ads disappear from recommendations too.
	e.Post("alice", "sneaker sale hunting", mid)
	recs, _ := e.Recommend("alice", 5, mid)
	for _, r := range recs {
		if r.AdID == "sale" {
			t.Fatalf("paced-out ad recommended: %+v", recs)
		}
	}
}

func TestRemoveAdDisappears(t *testing.T) {
	e := openEngine(t, testConfig())
	e.AddUser("alice")
	e.AddAd(Ad{ID: "x", Text: "sneaker sale", Bid: 0.5})
	e.Post("alice", "sneaker sale", morning)
	recs, _ := e.Recommend("alice", 3, morning)
	if len(recs) != 1 {
		t.Fatalf("recs = %+v", recs)
	}
	if err := e.RemoveAd("x"); err != nil {
		t.Fatal(err)
	}
	recs, _ = e.Recommend("alice", 3, morning)
	if len(recs) != 0 {
		t.Fatalf("removed ad still recommended: %+v", recs)
	}
	// The external ID is reusable after removal.
	if err := e.AddAd(Ad{ID: "x", Text: "new sneakers", Bid: 0.4}); err != nil {
		t.Fatalf("ID not reusable: %v", err)
	}
}

// recStrings renders recommendations with their exact scores (%v prints the
// shortest decimal that parses back to the same float), so two engines whose
// answers compare equal agree to the bit: every sum over terms runs in one
// order (textproc.SparseVector), whatever the shard count or batching.
func recStrings(recs []Recommendation) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%s:%v", r.AdID, r.Score)
	}
	return out
}

func TestShardedEngineMatchesSingle(t *testing.T) {
	run := func(shards int) []string {
		cfg := testConfig()
		cfg.Shards = shards
		e := openEngine(t, cfg)
		users := make([]string, 20)
		for i := range users {
			users[i] = fmt.Sprintf("u%02d", i)
			e.AddUser(users[i])
		}
		for i := 1; i < 20; i++ {
			e.Follow(users[i], users[0])
		}
		e.AddAd(Ad{ID: "run", Text: "running shoes marathon", Bid: 0.3})
		e.AddAd(Ad{ID: "eat", Text: "pizza dinner tonight", Bid: 0.6})
		for i := 0; i < 10; i++ {
			e.Post(users[0], "marathon running update number", morning.Add(time.Duration(i)*time.Minute))
		}
		var out []string
		for _, u := range users {
			recs, err := e.Recommend(u, 2, morning.Add(time.Hour))
			if err != nil {
				panic(err)
			}
			out = append(out, recStrings(recs)...)
		}
		return out
	}
	single := run(1)
	for _, p := range []int{2, 4} {
		if got := run(p); !reflect.DeepEqual(single, got) {
			t.Fatalf("shards=%d diverges from single:\n%v\n%v", p, single, got)
		}
	}
}

func TestContinuousMode(t *testing.T) {
	var mu sync.Mutex
	calls := map[string][]Recommendation{}
	cfg := testConfig()
	cfg.ContinuousK = 2
	cfg.OnRecommend = func(user string, recs []Recommendation) {
		mu.Lock()
		calls[user] = recs
		mu.Unlock()
	}
	e := openEngine(t, cfg)
	e.AddUser("alice")
	e.AddUser("bob")
	e.Follow("alice", "bob")
	e.AddAd(Ad{ID: "shoes", Text: "running shoes", Bid: 0.5})
	e.Post("bob", "running today", morning)

	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 2 { // bob (own feed) + alice
		t.Fatalf("continuous calls = %v", calls)
	}
	if len(calls["alice"]) != 1 || calls["alice"][0].AdID != "shoes" {
		t.Fatalf("alice continuous recs = %+v", calls["alice"])
	}
}

func TestStats(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	e := openEngine(t, cfg)
	e.AddUser("a")
	e.AddUser("b")
	e.Follow("a", "b")
	e.AddAd(Ad{ID: "x", Text: "sneaker sale", Bid: 0.5})
	e.Post("b", "sneaker day", morning)
	e.CheckIn("a", 1, 1, morning)
	st := e.Stats()
	if st.Users != 2 || st.Ads != 1 || st.FollowEdges != 1 || st.Shards != 2 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.PostsDelivered != 1 || st.CheckIns != 1 {
		t.Fatalf("counters = %+v", st)
	}
	if st.CandidateBufferEntries != 0 {
		t.Fatalf("a CAP buffer materialised before anyone read a feed: %+v", st)
	}
	if _, err := e.Recommend("a", 1, morning); err != nil {
		t.Fatal(err)
	}
	if st = e.Stats(); st.CandidateBufferEntries == 0 {
		t.Fatalf("CAP buffers empty after a read: %+v", st)
	}
}

// TestStatsTakesNoShardLock: Stats reads counters alone, no shard lock, so a
// caller that polls it — the benchmark drains a run by polling
// PostsDelivered — never waits behind a fan-out or a read. It used to take
// every shard lock in turn to walk every user's buffer.
func TestStatsTakesNoShardLock(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	e := openEngine(t, cfg)
	for _, u := range []string{"a", "b"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddAd(Ad{ID: "x", Text: "sneaker sale", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Post("b", "sneaker day", morning); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recommend("b", 1, morning); err != nil {
		t.Fatal(err)
	}
	want := e.Stats()
	if want.CandidateBufferEntries == 0 {
		t.Fatalf("the scenario needs a materialised buffer: %+v", want)
	}
	unlock := e.lockShards()
	defer unlock()
	done := make(chan Stats, 1)
	go func() { done <- e.Stats() }()
	select {
	case got := <-done:
		if got != want {
			t.Fatalf("Stats under held shard locks = %+v, want %+v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats waited for a shard lock")
	}
}

// TestConcurrentAddRemoveRecommendStress drives Recommend/Post/CheckIn
// readers against a churn of AddAd/RemoveAd writers across shards. Beyond
// `-race` cleanliness it pins the RemoveAd ordering fix: every writer
// records an ad name only *after* its RemoveAd returned, and no Recommend
// that started after that point may serve the name (ad names are never
// reused here). With the seed ordering — store and shard indexes torn down
// before the name unmap — a recommend overlapping the removal could still
// resolve and serve the withdrawn ad.
func TestConcurrentAddRemoveRecommendStress(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	e := openEngine(t, cfg)
	users := make([]string, 32)
	for i := range users {
		users[i] = fmt.Sprintf("u%02d", i)
		e.AddUser(users[i])
	}
	for i := 1; i < len(users); i++ {
		e.Follow(users[i], users[0])
	}
	if err := e.AddAd(Ad{ID: "base", Text: "sneaker sale downtown", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	e.Post(users[0], "sneaker sale running downtown", morning)

	// removed is an append-only log of fully-withdrawn ad names; removedN
	// publishes how much of it is safe to read without a lock.
	var (
		removedMu sync.Mutex
		removed   []string
		removedN  atomic.Int64
		stop      atomic.Bool
		fail      atomic.Pointer[string]
	)
	const writers, readers, posters = 2, 4, 2
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				name := fmt.Sprintf("churn-%d-%d", w, i)
				if err := e.AddAd(Ad{ID: name, Text: "sneaker flash sale", Bid: 0.3}); err != nil {
					msg := fmt.Sprintf("AddAd(%s): %v", name, err)
					fail.Store(&msg)
					return
				}
				if err := e.RemoveAd(name); err != nil {
					msg := fmt.Sprintf("RemoveAd(%s): %v", name, err)
					fail.Store(&msg)
					return
				}
				removedMu.Lock()
				removed = append(removed, name)
				removedN.Store(int64(len(removed)))
				removedMu.Unlock()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				// Names withdrawn before this query started must not serve.
				// The header copy under the mutex is race-free: the log is
				// append-only, so its first len(gone) entries never change.
				removedMu.Lock()
				gone := removed
				removedMu.Unlock()
				recs, err := e.Recommend(users[(r*7+i)%len(users)], 4, morning.Add(time.Minute))
				if err != nil {
					msg := fmt.Sprintf("Recommend: %v", err)
					fail.Store(&msg)
					return
				}
				for _, rec := range recs {
					for _, name := range gone {
						if rec.AdID == name {
							msg := fmt.Sprintf("served ad %q after its RemoveAd returned", name)
							fail.Store(&msg)
							return
						}
					}
				}
			}
		}(r)
	}
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				at := morning.Add(time.Duration(p*100+i) * time.Second)
				if i%5 == 0 {
					e.CheckIn(users[(p+i)%len(users)], 1.5, 1.5, at)
				} else if err := e.Post(users[p], "sneaker sale running", at); err != nil {
					msg := fmt.Sprintf("Post: %v", err)
					fail.Store(&msg)
					return
				}
			}
		}(p)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers and posters are bounded; once they finish, release the readers.
	for {
		select {
		case <-done:
			if msg := fail.Load(); msg != nil {
				t.Fatal(*msg)
			}
			if got := removedN.Load(); got != writers*150 {
				t.Fatalf("writers completed %d removals, want %d", got, writers*150)
			}
			return
		case <-time.After(10 * time.Millisecond):
			if removedN.Load() == writers*150 || fail.Load() != nil {
				stop.Store(true)
			}
		}
	}
}

// TestRemoveAdRollbackOnStoreError pins the rollback half of the new
// RemoveAd ordering: the name unmap is published first, and when the store
// removal then fails the mapping is restored, leaving the ad resolvable.
func TestRemoveAdRollbackOnStoreError(t *testing.T) {
	e := openEngine(t, testConfig())
	if err := e.AddAd(Ad{ID: "x", Text: "sneaker sale", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	internalID, ok := e.dir.Load().adIDs.get("x")
	if !ok {
		t.Fatal("ad not mapped")
	}
	// Sabotage: pull the ad out of the store behind the facade's back so
	// RemoveAd's store step fails after the unmap was published.
	if err := e.store.Remove(internalID); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveAd("x"); err == nil {
		t.Fatal("RemoveAd should surface the store error")
	}
	if _, ok := e.dir.Load().adIDs.get("x"); !ok {
		t.Fatal("mapping not rolled back after store error")
	}
	if ref, _ := e.dir.Load().ads.get(internalID); ref.name != "x" {
		t.Fatal("reverse mapping not rolled back after store error")
	}
}

// TestKAboveMaxRejected: k sizes the collector and, for CAP, the user's
// view, so a k above MaxK is refused — by Recommend, with a policy's
// over-fetch on top, and by Trending — before anything is allocated from
// it, and MaxK itself, over-fetched, answers.
func TestKAboveMaxRejected(t *testing.T) {
	e := openEngine(t, testConfig())
	e.AddUser("alice")
	if err := e.AddAd(Ad{ID: "shoes", Text: "running shoes", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	greedy := ServingPolicy{MaxPerCampaign: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range []int{MaxK + 1, 2_000_000_000, math.MaxInt} {
		if _, err := e.Recommend("alice", k, morning); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("Recommend k=%d: %v, want ErrBadConfig", k, err)
		}
		if _, _, err := e.RecommendTraced("alice", k, morning, greedy, TraceRequest{}); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("RecommendTraced k=%d: %v, want ErrBadConfig", k, err)
		}
		if _, err := e.Trending(Morning, k); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("Trending k=%d: %v, want ErrBadConfig", k, err)
		}
	}
	recs, _, err := e.RecommendTraced("alice", MaxK, morning, greedy, TraceRequest{})
	if err != nil || len(recs) != 1 {
		t.Fatalf("k=MaxK over-fetched: %v, %d ads, want the one ad", err, len(recs))
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("%d bytes allocated answering and refusing huge k, want nothing proportional to k", grew)
	}
	for _, sh := range e.shards {
		if view, _ := sh.eng.(*core.CAP).TopAdsPaths(); view != 0 {
			t.Fatal("a k above the view ceiling was answered from a view")
		}
	}
}

// failingTopAds is a shard engine whose every query fails.
type failingTopAds struct{ shardEngine }

func (failingTopAds) AppendTopAds([]core.Scored, feed.UserID, int, time.Time) ([]core.Scored, error) {
	return nil, errors.New("stub: topads unavailable")
}

// TestContinuousTopAdsErrorsCounted pins that per-user TopAds failures on
// the continuous delivery path are counted instead of silently swallowed.
func TestContinuousTopAdsErrorsCounted(t *testing.T) {
	var calls atomic.Int64
	cfg := testConfig()
	cfg.ContinuousK = 2
	cfg.OnRecommend = func(string, []Recommendation) { calls.Add(1) }
	e := openEngine(t, cfg)
	e.AddUser("alice")
	e.AddUser("bob")
	e.Follow("alice", "bob")
	if err := e.AddAd(Ad{ID: "shoes", Text: "running shoes", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Fail every TopAds, to reach the delivery path's per-user error branch.
	for i := range e.shards {
		e.shards[i].eng = failingTopAds{e.shards[i].eng}
	}

	if err := e.Post("bob", "running today", morning); err != nil {
		t.Fatal(err)
	}
	// bob (own feed) + alice both hit the failing TopAds.
	if got := e.obsm.continuousErrors.Value(); got != 2 {
		t.Fatalf("continuous error counter = %d, want 2", got)
	}
	if calls.Load() != 0 {
		t.Fatalf("OnRecommend fired despite TopAds errors")
	}
}

func TestConcurrentFacadeUse(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	e := openEngine(t, cfg)
	for i := 0; i < 40; i++ {
		e.AddUser(fmt.Sprintf("u%02d", i))
	}
	for i := 1; i < 40; i++ {
		e.Follow(fmt.Sprintf("u%02d", i), "u00")
	}
	e.AddAd(Ad{ID: "base", Text: "sneaker sale downtown", Bid: 0.5})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				at := morning.Add(time.Duration(w*50+i) * time.Second)
				switch i % 4 {
				case 0:
					e.Post("u00", "sneaker sale running", at)
				case 1:
					e.Recommend(fmt.Sprintf("u%02d", i%40), 3, at)
				case 2:
					e.CheckIn(fmt.Sprintf("u%02d", i%40), 1.5, 1.5, at)
				default:
					e.AddAd(Ad{ID: fmt.Sprintf("ad-%d-%d", w, i), Text: "flash sneaker deal", Bid: 0.2})
				}
			}
		}(w)
	}
	wg.Wait()
	if st := e.Stats(); st.PostsDelivered == 0 || st.Ads < 2 {
		t.Fatalf("concurrent run lost work: %+v", st)
	}
}

// TestContinuousCallbackIsTheRecommendAnswer pins continuous mode through
// the facade: what OnRecommend receives after a post is what Recommend
// returns for that user at that time — across shards, check-ins, ads coming
// and going, and out-of-order posts — and the refresh-path counter shows
// most of it came from the per-user views.
func TestContinuousCallbackIsTheRecommendAnswer(t *testing.T) {
	var mu sync.Mutex
	got := map[string][]Recommendation{}
	cfg := testConfig()
	cfg.Shards = 2
	cfg.ContinuousK = 3
	cfg.OnRecommend = func(user string, recs []Recommendation) {
		mu.Lock()
		got[user] = recs
		mu.Unlock()
	}
	cfg.Metrics = obs.NewRegistry()
	e := openEngine(t, cfg)

	rng := rand.New(rand.NewSource(5))
	words := strings.Fields("marathon running shoes pizza delivery coffee espresso guitar lessons yoga studio " +
		"bicycle repair concert tickets sushi ramen hiking boots camera lens vinyl records garden tools")
	text := func(n int) string {
		out := make([]string, n)
		for i := range out {
			out[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(out, " ")
	}
	const nUsers = 16
	user := func(i int) string { return fmt.Sprintf("u%d", i) }
	for i := 0; i < nUsers; i++ {
		if err := e.AddUser(user(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nUsers; i++ {
		for _, j := range rng.Perm(nUsers)[:4] {
			if j != i {
				e.Follow(user(i), user(j))
			}
		}
	}
	nAds := 0
	addAd := func() {
		ad := Ad{ID: fmt.Sprintf("ad%d", nAds), Text: text(3), Bid: 0.05 + 0.9*rng.Float64()}
		if rng.Intn(2) == 0 {
			ad.Target = &Target{Lat: 4 * rng.Float64(), Lng: 4 * rng.Float64(), RadiusKm: 100 + 200*rng.Float64()}
		}
		if err := e.AddAd(ad); err != nil {
			t.Fatal(err)
		}
		nAds++
	}
	for i := 0; i < 60; i++ {
		addAd()
	}

	at := morning
	for step := 0; step < 600; step++ {
		at = at.Add(time.Duration(rng.Intn(90)) * time.Second)
		switch op := rng.Intn(12); {
		case op < 8:
			postAt := at
			if rng.Intn(8) == 0 {
				postAt = at.Add(-time.Duration(rng.Intn(600)) * time.Second)
			}
			clear(got)
			if err := e.Post(user(rng.Intn(nUsers)), text(4), postAt); err != nil {
				t.Fatal(err)
			}
			for u, recs := range got {
				want, err := e.Recommend(u, cfg.ContinuousK, postAt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(recs, want) {
					t.Fatalf("step %d user %s: OnRecommend got\n%+v\nRecommend says\n%+v", step, u, recs, want)
				}
			}
		case op < 10:
			if err := e.CheckIn(user(rng.Intn(nUsers)), 4*rng.Float64(), 4*rng.Float64(), at); err != nil {
				t.Fatal(err)
			}
		case op == 10:
			addAd()
		default:
			e.RemoveAd(fmt.Sprintf("ad%d", rng.Intn(nAds))) // may be gone already
		}
	}

	var buf strings.Builder
	if err := cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var view, rerank int
	for _, line := range strings.Split(buf.String(), "\n") {
		fmt.Sscanf(line, `caar_engine_topads_total{path="view"} %d`, &view)
		fmt.Sscanf(line, `caar_engine_topads_total{path="rerank"} %d`, &rerank)
	}
	t.Logf("caar_engine_topads_total: view %d, rerank %d", view, rerank)
	if view == 0 || rerank == 0 || view < rerank {
		t.Fatalf("caar_engine_topads_total: view %d, rerank %d; want both paths taken, mostly the view", view, rerank)
	}
}
