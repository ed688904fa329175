package caar_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"caar"
	"caar/ingest"
	"caar/journal"
	"caar/obs"
)

// TestRecommendMatchesRSThroughIngest is the facade-level oracle of the one
// query path: a two-shard CAP engine fed through the asynchronous pipeline
// must render the same feeds — plain, and under a frequency cap with
// over-fetch 4 — as an engine whose shards run RS (OpenRS) applying the same
// operations directly. CAP answers most of these reads from per-user views
// that the batched applies keep noting into, and settles the ads added and
// withdrawn meanwhile — some of them campaign-less with bids high enough to
// enter a top k on static score alone — at each user's next read; RS has
// nothing of the kind to get wrong. Geo-targeted ads that share no keyword
// with any post compete from the users' grid cells throughout, and decide the
// top once quiet hours have decayed the windows' text.
func TestRecommendMatchesRSThroughIngest(t *testing.T) {
	const nUsers, nAds, steps = 24, 90, 1500
	t0 := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(23))
	vocab := strings.Fields("espresso marathon sneaker trail pizza vinyl concert yoga ramen surf climbing bakery cinema chess garden tattoo sushi bike kayak jazz")
	text := func(n int) string {
		words := make([]string, n)
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(words, " ")
	}
	user := func(i int) string { return fmt.Sprintf("u%02d", i) }

	rsCfg := caar.DefaultConfig()
	rsCfg.Shards, rsCfg.WindowSize, rsCfg.DecayHalfLife = 2, 8, 30*time.Minute
	capCfg := rsCfg
	capCfg.Metrics = obs.NewRegistry()
	capEng, err := caar.Open(capCfg)
	if err != nil {
		t.Fatal(err)
	}
	rsEng, err := caar.OpenRS(rsCfg)
	if err != nil {
		t.Fatal(err)
	}
	both := func(op func(*caar.Engine) error) {
		t.Helper()
		for _, eng := range []*caar.Engine{capEng, rsEng} {
			if err := op(eng); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < nUsers; i++ {
		both(func(e *caar.Engine) error { return e.AddUser(user(i)) })
	}
	for i := 0; i < nUsers; i++ {
		for _, j := range rng.Perm(nUsers)[:5] {
			if j != i {
				both(func(e *caar.Engine) error { return e.Follow(user(i), user(j)) })
			}
		}
	}
	both(func(e *caar.Engine) error { return e.AddCampaign("spring", 40, t0, t0.Add(48*time.Hour)) })
	var liveAds []string
	addAd := func(i int) {
		ad := caar.Ad{ID: fmt.Sprintf("ad%02d", i), Text: text(3), Bid: 0.05 + 0.9*rng.Float64()}
		if i%2 == 0 {
			ad.Target = &caar.Target{Lat: 4 * rng.Float64(), Lng: 4 * rng.Float64(), RadiusKm: 100 + 200*rng.Float64()}
		}
		if i%5 == 0 {
			ad.Campaign = "spring"
		}
		if i >= nAds && i%3 == 0 { // global, campaign-less, a bid near the top
			ad.Target, ad.Campaign, ad.Bid = nil, "", 0.9+0.1*rng.Float64()
		}
		both(func(e *caar.Engine) error { return e.AddAd(ad) })
		liveAds = append(liveAds, ad.ID)
	}
	for i := 0; i < nAds; i++ {
		addAd(i)
	}
	// Static-only competitors: geo-targeted ads that share no keyword with
	// any post, with bids near 1 and circles that cover every check-in. They
	// reach a top k on proximity and bid alone, from the user's grid cell
	// rather than the candidate buffer.
	locals := []caar.Target{{Lat: 1, Lng: 1}, {Lat: 1, Lng: 3}, {Lat: 3, Lng: 1}, {Lat: 3, Lng: 3}}
	for i := range locals {
		locals[i].RadiusKm = 450
		ad := caar.Ad{ID: fmt.Sprintf("local%d", i), Text: "lighthouse ferry harbour", Target: &locals[i], Bid: 0.97 + 0.01*float64(i)}
		both(func(e *caar.Engine) error { return e.AddAd(ad) })
	}
	nextAd, churned := nAds, 0

	p := ingest.New(capEng, journal.NewWriter(io.Discard), nil, ingest.Config{MaxBatch: 16})
	defer p.Close()
	applied := func() uint64 { st := capEng.Stats(); return st.PostsDelivered + st.CheckIns }
	policy := caar.ServingPolicy{FrequencyCap: 1, FrequencyWindow: time.Hour}
	// Scores agree to a tolerance, ties may rank either way: RS takes the dot
	// product of the window's aggregate, CAP sums per-message products into
	// incrementally updated buffers — different arithmetic, so different
	// rounding. CAP against CAP compares bits (shards_test.go).
	same := func(step int, what string, got, want []caar.Recommendation) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("step %d %s: CAP through ingest %+v\nRS %+v", step, what, got, want)
		}
		for i := range want {
			tied := (i > 0 && want[i-1].Score-want[i].Score < 1e-9) || (i+1 < len(want) && want[i].Score-want[i+1].Score < 1e-9)
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 || (!tied && got[i].AdID != want[i].AdID) {
				t.Fatalf("step %d %s rank %d: CAP through ingest %+v\nRS %+v", step, what, i, got, want)
			}
		}
	}

	at, submitted := t0, uint64(0)
	post := func(author, body string) {
		t.Helper()
		if err := p.SubmitPost(author, body, at); err != nil {
			t.Fatal(err)
		}
		if err := rsEng.Post(author, body, at); err != nil {
			t.Fatal(err)
		}
		submitted++
	}
	// drain waits for the applier to catch up. An ad write waits too: a
	// post's and an ad's TF-IDF weights depend on the documents the
	// vocabulary saw before them, so both engines must vectorize in one order.
	drain := func(step int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); applied() < submitted; {
			if time.Now().After(deadline) {
				t.Fatalf("step %d: %d of %d acked writes applied", step, applied(), submitted)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	// render is a feed render, once the applier has caught up.
	render := func(step int, who string, k int) {
		t.Helper()
		drain(step)
		want, err := rsEng.Recommend(who, k, at)
		if err != nil {
			t.Fatal(err)
		}
		got, err := capEng.Recommend(who, k, at)
		if err != nil {
			t.Fatal(err)
		}
		same(step, "Recommend", got, want)
		wantP, _, err := rsEng.RecommendTraced(who, k, at, policy, caar.TraceRequest{})
		if err != nil {
			t.Fatal(err)
		}
		gotP, _, err := capEng.RecommendTraced(who, k, at, policy, caar.TraceRequest{})
		if err != nil {
			t.Fatal(err)
		}
		same(step, "RecommendTraced", gotP, wantP)
		// Show the best ad: it is capped for this user for an hour, and
		// campaign ads spend the paced budget down on both engines.
		if len(want) > 0 {
			both(func(e *caar.Engine) error { _, err := e.ServeImpression(who, want[0].AdID, at); return err })
		}
	}
	for step := 0; step < steps; step++ {
		at = at.Add(time.Duration(rng.Intn(60)) * time.Second)
		switch op := rng.Intn(20); {
		case op < 12:
			post(user(rng.Intn(nUsers)), text(4))
		case op < 14:
			who, lat, lng := user(rng.Intn(nUsers)), 4*rng.Float64(), 4*rng.Float64()
			if err := p.SubmitCheckIn(who, lat, lng, at); err != nil {
				t.Fatal(err)
			}
			if err := rsEng.CheckIn(who, lat, lng, at); err != nil {
				t.Fatal(err)
			}
			submitted++
		case op == 14 && rng.Intn(2) == 0: // a new ad, while users are warm
			drain(step)
			addAd(nextAd)
			nextAd, churned = nextAd+1, churned+1
		case op == 14: // an ad withdrawn
			i := rng.Intn(len(liveAds))
			id := liveAds[i]
			liveAds = append(liveAds[:i], liveAds[i+1:]...)
			both(func(e *caar.Engine) error { return e.RemoveAd(id) })
			churned++
		default:
			render(step, user(rng.Intn(nUsers)), 1+rng.Intn(12))
		}
	}
	// A burst nobody reads — 25 posts a user on average, three windows' worth
	// for everyone's feed — then a render of every feed: candidate buffers
	// that fell a window behind were freed and are rebuilt by the read.
	for i := 0; i < 25*nUsers; i++ {
		at = at.Add(time.Duration(rng.Intn(60)) * time.Second)
		post(user(rng.Intn(nUsers)), text(4))
	}
	for i := 0; i < nUsers; i++ {
		render(steps, user(i), 1+rng.Intn(12))
	}
	// Quiet hours: six hours on, the windows' text has decayed to 1/4096, so a
	// buffered ad scores its static part and next to nothing more — just under
	// β+γ at best — and the static-only ads decide the top. Each user checks
	// in at the centre of one of their circles and renders.
	at = at.Add(6 * time.Hour)
	for i := 0; i < nUsers; i++ {
		c := locals[i%len(locals)]
		if err := p.SubmitCheckIn(user(i), c.Lat, c.Lng, at); err != nil {
			t.Fatal(err)
		}
		if err := rsEng.CheckIn(user(i), c.Lat, c.Lng, at); err != nil {
			t.Fatal(err)
		}
		submitted++
		render(steps+1, user(i), 1+i%4)
	}

	var buf strings.Builder
	if err := capCfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var view, rerank, merges, rebuilds, merged, skipped int
	for _, line := range strings.Split(buf.String(), "\n") {
		fmt.Sscanf(line, `caar_engine_topads_total{path="view"} %d`, &view)
		fmt.Sscanf(line, `caar_engine_topads_total{path="rerank"} %d`, &rerank)
		fmt.Sscanf(line, `caar_engine_buffer_catchups_total{kind="merge"} %d`, &merges)
		fmt.Sscanf(line, `caar_engine_buffer_catchups_total{kind="rebuild"} %d`, &rebuilds)
		fmt.Sscanf(line, `caar_engine_buffer_deliveries_total{fate="merged"} %d`, &merged)
		fmt.Sscanf(line, `caar_engine_buffer_deliveries_total{fate="skipped"} %d`, &skipped)
	}
	t.Logf("caar_engine_topads_total: view %d, rerank %d; buffer catch-ups: %d merges of %d deliveries, %d rebuilds, %d deliveries skipped",
		view, rerank, merges, merged, rebuilds, skipped)
	t.Logf("%d ads added or withdrawn among the reads", churned)
	if view == 0 || rerank == 0 || churned == 0 {
		t.Fatalf("both paths must serve reads, with ad churn among them: view %d, rerank %d, churn %d", view, rerank, churned)
	}
	// A merge took several deliveries at once, and the burst went unmerged.
	if merges == 0 || merged <= merges || rebuilds < nUsers || skipped < 25*nUsers {
		t.Fatalf("lazy catch-up not exercised: %d merges of %d deliveries, %d rebuilds, %d deliveries skipped", merges, merged, rebuilds, skipped)
	}
}
