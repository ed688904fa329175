package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	caar "caar"
	"caar/journal"
	"caar/obs"
)

var t0 = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func newEngine(t *testing.T) *caar.Engine {
	t.Helper()
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := eng.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// countingJournal wraps a real Writer, counting batches and optionally
// delaying or failing each commit.
type countingJournal struct {
	w       *journal.Writer
	batches atomic.Int64
	syncs   atomic.Int64
	delay   time.Duration
	fail    atomic.Bool
}

func (j *countingJournal) AppendBatch(entries []journal.Entry) error {
	if j.delay > 0 {
		time.Sleep(j.delay)
	}
	if j.fail.Load() {
		return fmt.Errorf("%w: sync: injected", journal.ErrDurability)
	}
	j.batches.Add(1)
	return j.w.AppendBatch(entries)
}

func (j *countingJournal) SyncPending() error {
	j.syncs.Add(1)
	return nil
}

func TestPipelineCommitsAppliesAndReplays(t *testing.T) {
	eng := newEngine(t)
	var log bytes.Buffer
	// A 1ms "fsync" makes submitters pile up behind the in-flight commit, so
	// group commit has something to group even on a fast machine.
	cj := &countingJournal{w: journal.NewWriter(&log), delay: time.Millisecond}
	p := New(eng, cj, nil, Config{QueueSize: 128, MaxBatch: 32})

	const n = 200
	var wg sync.WaitGroup
	var acked atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Retry on ErrQueueFull exactly as a client honoring 429 +
			// Retry-After would.
			for {
				var err error
				if i%4 == 3 {
					err = p.SubmitCheckIn("alice", 1.5, 1.5, t0)
				} else {
					err = p.SubmitPost("bob", fmt.Sprintf("update %d from the road", i), t0)
				}
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				acked.Add(1)
				return
			}
		}(i)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if acked.Load() != n {
		t.Fatalf("acked %d of %d", acked.Load(), n)
	}

	// Everything acked was applied by Close's drain.
	st := eng.Stats()
	if st.PostsDelivered != n-n/4 {
		t.Fatalf("posts delivered = %d, want %d", st.PostsDelivered, n-n/4)
	}
	if st.CheckIns != n/4 {
		t.Fatalf("check-ins = %d, want %d", st.CheckIns, n/4)
	}
	// Group commit actually grouped: far fewer batches than entries.
	if b := cj.batches.Load(); b >= n {
		t.Fatalf("no batching: %d batches for %d entries", b, n)
	}

	// And the journal replays to the same state — the ack is backed by the
	// log, not by memory.
	recovered, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := recovered.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := recovered.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	stats, err := journal.Replay(bytes.NewReader(log.Bytes()), recovered)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != n || stats.Skipped != 0 {
		t.Fatalf("replay stats = %+v, want %d applied", stats, n)
	}
	if got := recovered.Stats().PostsDelivered; got != n-n/4 {
		t.Fatalf("replayed posts = %d, want %d", got, n-n/4)
	}
}

func TestPipelineQueueFullRejects(t *testing.T) {
	eng := newEngine(t)
	var log bytes.Buffer
	cj := &countingJournal{w: journal.NewWriter(&log), delay: 20 * time.Millisecond}
	p := New(eng, cj, nil, Config{QueueSize: 8, MaxBatch: 4})
	defer p.Close()

	const n = 120
	var wg sync.WaitGroup
	var full, ok atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := p.SubmitPost("bob", fmt.Sprintf("burst %d", i), t0)
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrQueueFull):
				full.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if full.Load() == 0 {
		t.Fatal("slow journal with a tiny ring never rejected — backpressure is not wired")
	}
	if ok.Load() == 0 {
		t.Fatal("every submit rejected — ring never drains")
	}
}

func TestPipelineJournalErrorAcksFailureAppliesNothing(t *testing.T) {
	eng := newEngine(t)
	var log bytes.Buffer
	cj := &countingJournal{w: journal.NewWriter(&log)}
	cj.fail.Store(true)
	p := New(eng, cj, nil, Config{QueueSize: 64, MaxBatch: 16})
	defer p.Close()

	err := p.SubmitPost("bob", "doomed", t0)
	if !errors.Is(err, journal.ErrDurability) {
		t.Fatalf("got %v, want ErrDurability", err)
	}
	if got := eng.Stats().PostsDelivered; got != 0 {
		t.Fatalf("failed commit was applied: %d posts", got)
	}
	if log.Len() != 0 {
		t.Fatal("failed commit reached the log buffer")
	}
}

func TestPipelineValidatesBeforeEnqueue(t *testing.T) {
	eng := newEngine(t)
	var log bytes.Buffer
	cj := &countingJournal{w: journal.NewWriter(&log)}
	p := New(eng, cj, nil, Config{})
	defer p.Close()

	if err := p.SubmitPost("ghost", "boo", t0); !errors.Is(err, caar.ErrUnknownUser) {
		t.Fatalf("unknown author: got %v, want ErrUnknownUser", err)
	}
	if err := p.SubmitCheckIn("ghost", 1, 1, t0); !errors.Is(err, caar.ErrUnknownUser) {
		t.Fatalf("unknown user: got %v, want ErrUnknownUser", err)
	}
	if err := p.SubmitCheckIn("alice", 99, 0, t0); err == nil {
		t.Fatal("out-of-region check-in accepted")
	}
	if log.Len() != 0 {
		t.Fatal("rejected submissions reached the journal")
	}
}

func TestPipelineClosedRejects(t *testing.T) {
	eng := newEngine(t)
	p := New(eng, &countingJournal{w: journal.NewWriter(&bytes.Buffer{})}, nil, Config{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitPost("bob", "late", t0); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineIdleTimerFlushesTail checks the satellite-4 wiring from the
// pipeline side: an idle committer periodically calls the journal's
// SyncPending so interval-policy records never sit unsynced waiting for the
// next append.
func TestPipelineIdleTimerFlushesTail(t *testing.T) {
	eng := newEngine(t)
	cj := &countingJournal{w: journal.NewWriter(&bytes.Buffer{})}
	p := New(eng, cj, nil, Config{IdleSync: 5 * time.Millisecond})
	defer p.Close()

	if err := p.SubmitPost("bob", "one post then silence", t0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for cj.syncs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle committer never flushed the journal tail")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineCloseMidBurstDrainRace closes the pipeline while a burst is
// still in flight and checks the shutdown contract under the race detector:
// every write acked before or during the drain survives to the engine AND
// the journal, no submitter is left blocked, and both background goroutines
// exit. Close returning proves the exits structurally: Close blocks on
// p.done, which only the applier closes, and the applier only exits when
// the committer has closed applyq on its own way out.
func TestPipelineCloseMidBurstDrainRace(t *testing.T) {
	eng := newEngine(t)
	var log bytes.Buffer
	// A small ring behind a slow journal keeps the burst mid-flight: some
	// submitters acked, some parked in the ring, some shedding, all racing
	// the closed flag when Close lands.
	cj := &countingJournal{w: journal.NewWriter(&log), delay: 200 * time.Microsecond}
	p := New(eng, cj, nil, Config{QueueSize: 16, MaxBatch: 8})

	const n = 300
	var wg sync.WaitGroup
	var acked, shed, closed atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := p.SubmitPost("bob", fmt.Sprintf("mid-burst %d", i), t0)
			switch {
			case err == nil:
				acked.Add(1)
			case errors.Is(err, ErrQueueFull):
				shed.Add(1)
			case errors.Is(err, ErrClosed):
				closed.Add(1)
			default:
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}

	// Pull the plug mid-burst: wait for proof the pipeline is live (a few
	// acks), not for the burst to finish.
	deadline := time.Now().Add(10 * time.Second)
	for acked.Load() < 10 {
		if time.Now().After(deadline) {
			t.Fatal("pipeline never acked the first writes")
		}
		time.Sleep(100 * time.Microsecond)
	}
	closeDone := make(chan struct{})
	go func() {
		defer close(closeDone)
		if err := p.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	wg.Wait() // no submitter may be left blocked on its ack
	select {
	case <-closeDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned — committer or applier leaked")
	}

	if got := acked.Load() + shed.Load() + closed.Load(); got != n {
		t.Fatalf("accounted for %d of %d submitters", got, n)
	}
	if closed.Load()+shed.Load() == 0 {
		t.Log("note: every submit was acked; close landed after the burst")
	}

	// Every ack is backed by state: the engine saw exactly the acked posts…
	if got := eng.Stats().PostsDelivered; got != uint64(acked.Load()) {
		t.Fatalf("engine delivered %d posts, %d were acked", got, acked.Load())
	}
	// …and so does the journal, replayed into a fresh engine.
	recovered, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := recovered.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := recovered.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	stats, err := journal.Replay(bytes.NewReader(log.Bytes()), recovered)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != int(acked.Load()) || stats.Skipped != 0 {
		t.Fatalf("replay stats = %+v, want %d applied", stats, acked.Load())
	}

	// The committer is gone: a late submit fails fast instead of parking in
	// the ring forever.
	if err := p.SubmitPost("bob", "after close", t0); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: got %v, want ErrClosed", err)
	}
}

// TestRecommendMatchesRSThroughIngest is the facade-level oracle of the one
// query path: a two-shard CAP engine fed through the asynchronous pipeline
// must render the same feeds — plain, and under a frequency cap with
// over-fetch 4 — as an RS engine applying the same operations directly. CAP
// answers most of these reads from per-user views that the batched applies
// keep noting into; RS has nothing of the kind to get wrong.
func TestRecommendMatchesRSThroughIngest(t *testing.T) {
	const nUsers, nAds, steps = 24, 90, 1500
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

	capCfg := caar.DefaultConfig()
	capCfg.Shards, capCfg.WindowSize, capCfg.DecayHalfLife = 2, 8, 30*time.Minute
	rsCfg := capCfg
	rsCfg.Algorithm = caar.AlgorithmRS
	capCfg.Metrics = obs.NewRegistry()
	var engines [2]*caar.Engine
	for i, cfg := range []caar.Config{capCfg, rsCfg} {
		eng, err := caar.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	both := func(op func(*caar.Engine) error) {
		t.Helper()
		for _, eng := range engines {
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

	capEng, rsEng := engines[0], engines[1]
	p := New(capEng, &countingJournal{w: journal.NewWriter(io.Discard)}, nil, Config{MaxBatch: 16})
	defer p.Close()
	applied := func() uint64 { st := capEng.Stats(); return st.PostsDelivered + st.CheckIns }
	policy := caar.ServingPolicy{FrequencyCap: 1, FrequencyWindow: time.Hour}
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
			both(func(e *caar.Engine) error { _, err := e.RecordImpressionTo(who, want[0].AdID, at); return err })
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
