package caar

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// policyFixture builds an engine with one user whose context matches many
// ads, some grouped under one campaign.
func policyFixture(t *testing.T) *Engine {
	t.Helper()
	e := openEngine(t, testConfig())
	if err := e.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddCampaign("mega", 1000, morning.Add(-24*time.Hour), morning.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Five campaign ads with descending bids, plus two independents.
	for i := 0; i < 5; i++ {
		if err := e.AddAd(Ad{
			ID:       fmt.Sprintf("mega-%d", i),
			Text:     "sneaker marathon running sale",
			Campaign: "mega",
			Bid:      0.9 - float64(i)*0.1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.AddAd(Ad{ID: "indie-1", Text: "sneaker cleaning kit", Bid: 0.3})
	e.AddAd(Ad{ID: "indie-2", Text: "marathon photo prints", Bid: 0.2})
	e.Post("alice", "sneaker marathon this weekend", morning)
	return e
}

func TestRecommendWithPolicyZeroPolicyEqualsRecommend(t *testing.T) {
	e := policyFixture(t)
	plain, err := e.Recommend("alice", 4, morning)
	if err != nil {
		t.Fatal(err)
	}
	withPolicy, _, err := e.RecommendTraced("alice", 4, morning, ServingPolicy{}, TraceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(withPolicy) {
		t.Fatalf("zero policy differs: %v vs %v", plain, withPolicy)
	}
	for i := range plain {
		if plain[i].AdID != withPolicy[i].AdID {
			t.Fatalf("rank %d: %s vs %s", i, plain[i].AdID, withPolicy[i].AdID)
		}
	}
}

func TestCampaignDiversity(t *testing.T) {
	e := policyFixture(t)
	recs, _, err := e.RecommendTraced("alice", 4, morning, ServingPolicy{MaxPerCampaign: 2}, TraceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("slate = %+v", recs)
	}
	mega := 0
	for _, r := range recs {
		if e.dir.Load().campaignOf(r.AdID) == "mega" {
			mega++
		}
	}
	if mega != 2 {
		t.Fatalf("campaign cap violated: %d mega ads in %+v", mega, recs)
	}
	// The independents must have been pulled up into the slate.
	found := map[string]bool{}
	for _, r := range recs {
		found[r.AdID] = true
	}
	if !found["indie-1"] || !found["indie-2"] {
		t.Fatalf("diversity did not surface independents: %+v", recs)
	}
	// Ranking within the slate stays score-descending.
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatalf("slate not score-ordered: %+v", recs)
		}
	}
}

func TestFrequencyCap(t *testing.T) {
	e := policyFixture(t)
	policy := ServingPolicy{FrequencyCap: 2, FrequencyWindow: time.Hour}

	top := func(at time.Time) string {
		recs, _, err := e.RecommendTraced("alice", 1, at, policy, TraceRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatal("empty slate")
		}
		return recs[0].AdID
	}

	first := top(morning)
	// Two impressions: still under cap after one.
	if ok, err := e.ServeImpression("alice", first, morning); err != nil || !ok {
		t.Fatalf("impression 1: %v %v", ok, err)
	}
	if got := top(morning.Add(time.Second)); got != first {
		t.Fatalf("after 1 impression: top = %s, want %s", got, first)
	}
	if ok, err := e.ServeImpression("alice", first, morning.Add(time.Minute)); err != nil || !ok {
		t.Fatalf("impression 2: %v %v", ok, err)
	}
	// Cap reached: the ad disappears from alice's slate...
	if got := top(morning.Add(2 * time.Minute)); got == first {
		t.Fatalf("frequency cap not applied: still %s", got)
	}
	// ...but other users are unaffected.
	e.AddUser("bob")
	e.Post("bob", "sneaker marathon chatter", morning.Add(time.Minute))
	recs, _, err := e.RecommendTraced("bob", 1, morning.Add(2*time.Minute), policy, TraceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].AdID != first {
		t.Fatalf("cap leaked across users: %+v", recs)
	}
	// The cap expires with the window.
	later := morning.Add(2 * time.Hour)
	e.Post("alice", "sneaker marathon again", later)
	recs, _, err = e.RecommendTraced("alice", 1, later, policy, TraceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].AdID != first {
		t.Fatalf("cap did not expire: %+v", recs)
	}
}

func TestRecordImpressionToErrors(t *testing.T) {
	e := policyFixture(t)
	if _, err := e.ServeImpression("ghost", "indie-1", morning); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("ghost user: %v", err)
	}
	if _, err := e.ServeImpression("alice", "nope", morning); !errors.Is(err, ErrUnknownAd) {
		t.Fatalf("ghost ad: %v", err)
	}
}

func TestFrequencyCapOnlyCountsBillableImpressions(t *testing.T) {
	e := openEngine(t, testConfig())
	e.AddUser("alice")
	// Tight budget: one impression only.
	e.AddCampaign("tiny", 1.0, morning.Add(-time.Hour), morning.Add(time.Hour))
	e.AddAd(Ad{ID: "x", Text: "sneaker sale", Campaign: "tiny", Bid: 0.5})
	e.Post("alice", "sneaker shopping", morning)

	if ok, _ := e.ServeImpression("alice", "x", morning); !ok {
		t.Fatal("first impression should bill")
	}
	// Second attempt is paced out: not billable, must NOT count toward the
	// frequency cap.
	if ok, _ := e.ServeImpression("alice", "x", morning); ok {
		t.Fatal("second impression should be paced out")
	}
	if got := e.impressions.countSince("alice", "x", morning, time.Hour); got != 1 {
		t.Fatalf("unbillable impression recorded: count = %d", got)
	}
}

func TestImpressionLogPruning(t *testing.T) {
	l := newImpressionLog()
	base := morning
	l.record("u", "a", base)
	l.record("u", "a", base.Add(time.Minute))
	if got := l.countSince("u", "a", base.Add(2*time.Minute), time.Hour); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	// Far in the future everything ages out and the maps empty themselves.
	if got := l.countSince("u", "a", base.Add(3*time.Hour), time.Hour); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
	if len(l.byUA) != 0 {
		t.Fatalf("log not pruned: %v", l.byUA)
	}
	if got := l.countSince("ghost", "a", base, time.Hour); got != 0 {
		t.Fatal("unknown user count should be 0")
	}
}

// TestImpressionLogForgetsBeyondMaxWindow: a pair billed hourly for 83 days
// keeps only the impressions a frequency cap can still count, and a window
// longer than the log remembers is rejected.
func TestImpressionLogForgetsBeyondMaxWindow(t *testing.T) {
	l := newImpressionLog()
	for i := 0; i < 2000; i++ {
		l.record("u", "a", morning.Add(time.Duration(i)*time.Hour))
	}
	if n := len(l.byUA["u"]["a"]); n > int(maxFrequencyWindow/time.Hour)+1 {
		t.Fatalf("%d impressions kept, want at most %d", n, int(maxFrequencyWindow/time.Hour)+1)
	}

	e := policyFixture(t)
	policy := ServingPolicy{FrequencyCap: 1, FrequencyWindow: maxFrequencyWindow + time.Second}
	if _, _, err := e.RecommendTraced("alice", 1, morning, policy, TraceRequest{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("window above %v: %v, want ErrBadConfig", maxFrequencyWindow, err)
	}
}
