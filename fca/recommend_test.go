package fca

import (
	"reflect"
	"testing"
)

func TestCommunities(t *testing.T) {
	tc := paperCheckinContext(t)
	comms := Communities(tc, "m1")
	// m1: Tom checks in at t1..t3, Sam at t3 only →
	// ({Tom},{t1,t2,t3}) and ({Sam,Tom},{t3}).
	if len(comms) != 2 {
		t.Fatalf("m1 communities = %+v", comms)
	}
	if got := Communities(tc, "nowhere"); got != nil {
		t.Fatalf("unknown location: %+v", got)
	}
}

// TestRecommendPaperScenario reproduces the worked example: an Adidas ad at
// location m2 characterized by URI1 and URI2 must target exactly Luke.
// (The source text reports Luke's slots as the topic community's {t1, t3};
// our stricter semantics intersects with the location community's slots,
// yielding {t1} — Luke is at m2 only during t1 and t2.)
func TestRecommendPaperScenario(t *testing.T) {
	checkins := paperCheckinContext(t)
	tweets := paperTweetContext(t).AlphaCut(0.6)
	recs := Recommend(checkins, tweets, AdContext{
		Location: "m2",
		URIs:     []string{"URI1", "URI2"},
	})
	want := []Recommendation{{User: "Luke", Slots: []string{"t1"}}}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("Recommend = %+v, want %+v", recs, want)
	}
}

func TestRecommendSlotFilter(t *testing.T) {
	checkins := paperCheckinContext(t)
	tweets := paperTweetContext(t).AlphaCut(0.6)
	// Restricting to t1 keeps Luke; restricting to t3 drops everyone
	// (Luke's m2 community is only active t1, t2).
	recs := Recommend(checkins, tweets, AdContext{
		Location: "m2", URIs: []string{"URI1"}, Slot: "t1",
	})
	if len(recs) != 1 || recs[0].User != "Luke" || !reflect.DeepEqual(recs[0].Slots, []string{"t1"}) {
		t.Fatalf("slot t1: %+v", recs)
	}
	recs = Recommend(checkins, tweets, AdContext{
		Location: "m2", URIs: []string{"URI1"}, Slot: "t3",
	})
	if len(recs) != 0 {
		t.Fatalf("slot t3 should be empty: %+v", recs)
	}
}

func TestRecommendLiaAtM2(t *testing.T) {
	checkins := paperCheckinContext(t)
	tweets := paperTweetContext(t).AlphaCut(0.6)
	// Lia posts about URI5 all day and checks in at m2 all day: a URI5 ad at
	// m2 should target Lia (and Sam is excluded: no m2 check-ins).
	recs := Recommend(checkins, tweets, AdContext{
		Location: "m2", URIs: []string{"URI5"},
	})
	if len(recs) != 1 || recs[0].User != "Lia" {
		t.Fatalf("URI5@m2: %+v", recs)
	}
	if !reflect.DeepEqual(recs[0].Slots, []string{"t1", "t2", "t3"}) {
		t.Fatalf("Lia slots = %v", recs[0].Slots)
	}
}

func TestRecommendNoMatch(t *testing.T) {
	checkins := paperCheckinContext(t)
	tweets := paperTweetContext(t).AlphaCut(0.6)
	if recs := Recommend(checkins, tweets, AdContext{Location: "m3", URIs: []string{"URI2"}}); len(recs) != 0 {
		t.Fatalf("m3×URI2 should be empty (Sam never at m3): %+v", recs)
	}
	if recs := Recommend(checkins, tweets, AdContext{Location: "unknown", URIs: []string{"URI1"}}); recs != nil {
		t.Fatalf("unknown location: %+v", recs)
	}
	if recs := Recommend(checkins, tweets, AdContext{Location: "m2", URIs: nil}); recs != nil {
		t.Fatalf("no URIs: %+v", recs)
	}
}
