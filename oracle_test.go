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
// that the batched applies keep noting into; RS has nothing of the kind to
// get wrong.
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
	for i := 0; i < nAds; i++ {
		ad := caar.Ad{ID: fmt.Sprintf("ad%02d", i), Text: text(3), Bid: 0.05 + 0.9*rng.Float64()}
		if i%2 == 0 {
			ad.Target = &caar.Target{Lat: 4 * rng.Float64(), Lng: 4 * rng.Float64(), RadiusKm: 100 + 200*rng.Float64()}
		}
		if i%5 == 0 {
			ad.Campaign = "spring"
		}
		both(func(e *caar.Engine) error { return e.AddAd(ad) })
	}

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
	// render is a feed render, once the applier has caught up.
	render := func(step int, who string, k int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); applied() < submitted; {
			if time.Now().After(deadline) {
				t.Fatalf("step %d: %d of %d acked writes applied", step, applied(), submitted)
			}
			time.Sleep(50 * time.Microsecond)
		}
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
		switch op := rng.Intn(10); {
		case op < 6:
			post(user(rng.Intn(nUsers)), text(4))
		case op == 6:
			who, lat, lng := user(rng.Intn(nUsers)), 4*rng.Float64(), 4*rng.Float64()
			if err := p.SubmitCheckIn(who, lat, lng, at); err != nil {
				t.Fatal(err)
			}
			if err := rsEng.CheckIn(who, lat, lng, at); err != nil {
				t.Fatal(err)
			}
			submitted++
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
	if view == 0 || rerank == 0 {
		t.Fatalf("both paths must serve reads: view %d, rerank %d", view, rerank)
	}
	// A merge took several deliveries at once, and the burst went unmerged.
	if merges == 0 || merged <= merges || rebuilds < nUsers || skipped < 25*nUsers {
		t.Fatalf("lazy catch-up not exercised: %d merges of %d deliveries, %d rebuilds, %d deliveries skipped", merges, merged, rebuilds, skipped)
	}
}
