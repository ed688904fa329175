package caar

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"caar/internal/feed"
	"caar/workload"
)

// hotWorkloadConfig is a laptop-fast workload slice. Celebrities > 0 plants
// a known heavy tail: the first `celebs` users post ~25× as often and are
// followed by half the user base, so their fan-out cost dwarfs everyone
// else's — the ground truth the recall assertions compare against.
func hotWorkloadConfig(celebs int) workload.Config {
	wcfg := workload.DefaultConfig()
	wcfg.Users = 250
	wcfg.AvgFollowees = 8
	wcfg.Messages = 3000
	wcfg.Ads = 40
	wcfg.RenderText = true
	wcfg.Celebrities = celebs
	if celebs > 0 {
		wcfg.CelebrityFollowFrac = 0.5
	}
	return wcfg
}

// feedHotWorkload mirrors the workload's users, graph, and post stream into
// the engine and returns the true per-author fan-out cost: for each post,
// followers(author)+1 feed windows are written.
func feedHotWorkload(t *testing.T, e *Engine, w *workload.Workload) (handles []string, truth map[feed.UserID]uint64) {
	t.Helper()
	handles = make([]string, len(w.Users))
	for i := range w.Users {
		handles[i] = fmt.Sprintf("u%04d", i)
		if err := e.AddUser(handles[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range w.Users {
		for _, f := range w.Graph.Followers(u.ID) {
			if err := e.Follow(handles[f], handles[u.ID]); err != nil {
				t.Fatal(err)
			}
		}
	}
	truth = map[feed.UserID]uint64{}
	for _, ev := range w.Events {
		if ev.Kind != workload.EventPost {
			continue
		}
		if err := e.Post(handles[ev.User], ev.Text, ev.Time); err != nil {
			t.Fatal(err)
		}
		truth[ev.User] += uint64(w.Graph.FollowerCount(ev.User) + 1)
	}
	return handles, truth
}

// handleIDs inverts feedHotWorkload's handles: a reported key back to the
// workload user it names.
func handleIDs(handles []string) map[string]feed.UserID {
	ids := make(map[string]feed.UserID, len(handles))
	for i, h := range handles {
		ids[h] = feed.UserID(i)
	}
	return ids
}

func trueRanking(truth map[feed.UserID]uint64) []feed.UserID {
	ids := make([]feed.UserID, 0, len(truth))
	for id := range truth {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if truth[ids[i]] != truth[ids[j]] {
			return truth[ids[i]] > truth[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// TestHotPostersRecallOnCelebrityTail is the acceptance gate: against the
// workload generator's planted celebrity tail, the posters dimension must
// recall ≥ 0.9 of the true top-k by fan-out cost, and every reported
// estimate must cover the true count within its error bound.
func TestHotPostersRecallOnCelebrityTail(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	e := openEngine(t, cfg)
	w, err := workload.Generate(hotWorkloadConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	handles, truth := feedHotWorkload(t, e, w)

	const k = 10
	rep, err := e.Hot("posters", k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Keys) != k {
		t.Fatalf("got %d keys, want %d", len(rep.Keys), k)
	}

	trueTop := map[string]bool{}
	for _, id := range trueRanking(truth)[:k] {
		trueTop[handles[id]] = true
	}
	hits := 0
	for _, hk := range rep.Keys {
		if trueTop[hk.Key] {
			hits++
		}
	}
	if recall := float64(hits) / float64(k); recall < 0.9 {
		t.Fatalf("top-%d recall %.2f < 0.9: reported %+v", k, recall, rep.Keys)
	}

	// Error bounds must cover the true counts: estimates are one-sided
	// (never below truth) and within truth+bound.
	ids := handleIDs(handles)
	for _, hk := range rep.Keys {
		id, named := ids[hk.Key]
		if !named {
			t.Fatalf("reported poster %q is no workload user", hk.Key)
		}
		want := truth[id]
		if hk.Count < want {
			t.Errorf("poster %s under-estimated: %d < true %d", hk.Key, hk.Count, want)
		}
		if hk.Count > want+hk.ErrorBound {
			t.Errorf("poster %s outside bound: est %d true %d bound %d", hk.Key, hk.Count, want, hk.ErrorBound)
		}
	}
}

// TestHotNoSpuriousHeavyHittersOnUniformTrace: with no planted tail, the
// tracker must not fabricate heavy hitters — every reported key must be
// genuinely near the top of the true ranking and estimated within bounds.
func TestHotNoSpuriousHeavyHittersOnUniformTrace(t *testing.T) {
	cfg := testConfig()
	e := openEngine(t, cfg)
	w, err := workload.Generate(hotWorkloadConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	handles, truth := feedHotWorkload(t, e, w)

	rep, err := e.Hot("posters", 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	ranking := trueRanking(truth)
	rankOf := make(map[feed.UserID]int, len(ranking))
	for i, id := range ranking {
		rankOf[id] = i
	}
	ids := handleIDs(handles)
	for _, hk := range rep.Keys {
		id, named := ids[hk.Key]
		want, known := truth[id]
		if !named || !known {
			t.Fatalf("spurious heavy hitter %q: key never posted", hk.Key)
		}
		if hk.Count < want || hk.Count > want+hk.ErrorBound {
			t.Errorf("poster %s estimate %d outside [true %d, true+bound %d]",
				hk.Key, hk.Count, want, want+hk.ErrorBound)
		}
		// Near-ties make exact top-10 membership unstable on a flat
		// distribution; spurious means nowhere near the top.
		if rankOf[id] >= 30 {
			t.Errorf("poster %s reported hot but true rank is %d (count %d)", hk.Key, rankOf[id], want)
		}
	}
}

// TestHotUsersAndCampaignDimensions drives the two serving-side record
// sites — Recommend and ServeImpression — and checks the planted hot user
// and hot campaign surface in their dimensions.
func TestHotUsersAndCampaignDimensions(t *testing.T) {
	cfg := testConfig()
	e := openEngine(t, cfg)
	for _, h := range []string{"hotshot", "bob", "carol"} {
		if err := e.AddUser(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddCampaign("mega-launch", 1000, morning.Add(-24*time.Hour), morning.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "ad-mega", Text: "coffee deals downtown", Campaign: "mega-launch", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "ad-solo", Text: "quiet bookshop corner", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 40; i++ {
		if _, err := e.Recommend("hotshot", 3, morning); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Recommend("bob", 3, morning); err != nil {
		t.Fatal(err)
	}
	urep, err := e.Hot("users", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(urep.Keys) == 0 || urep.Keys[0].Key != "hotshot" || urep.Keys[0].Count != 40 {
		t.Fatalf("users dimension = %+v", urep.Keys)
	}

	for i := 0; i < 25; i++ {
		if _, err := e.ServeImpression("", "ad-mega", morning); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ServeImpression("", "ad-solo", morning); err != nil {
		t.Fatal(err)
	}
	crep, err := e.Hot("campaigns", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(crep.Keys) != 2 || crep.Keys[0].Key != "mega-launch" || crep.Keys[0].Count != 25 {
		t.Fatalf("campaigns dimension = %+v", crep.Keys)
	}
	// The campaign-less ad reports under its ad name.
	if crep.Keys[1].Key != "ad-solo" {
		t.Fatalf("campaign-less ad not named: %+v", crep.Keys)
	}
}

func TestHotDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.DisableHotKeys = true
	e := openEngine(t, cfg)
	if e.HotTracker() != nil {
		t.Fatal("tracker created despite DisableHotKeys")
	}
	if err := e.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	// Record sites must be nil-safe no-ops.
	if err := e.Post("alice", "hello world", morning); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recommend("alice", 3, morning); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Hot("users", 5, 0); !errors.Is(err, ErrHotKeysDisabled) {
		t.Fatalf("Hot on disabled engine: %v", err)
	}
}

func TestHotUnknownDimension(t *testing.T) {
	e := openEngine(t, testConfig())
	if _, err := e.Hot("bogus", 5, 0); err == nil {
		t.Fatal("unknown dimension accepted")
	}
}
