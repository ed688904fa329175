package caar

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"caar/obs/trace"
)

// tracedEngine builds an engine with a trace store, a small social graph,
// geo-targeted and global ads, and enough posted context that a recommend
// returns several ads with non-trivial text, geo and bid components.
func tracedEngine(t *testing.T, tcfg trace.Config) *Engine {
	t.Helper()
	cfg := testConfig()
	cfg.Tracer = trace.NewStore(tcfg)
	e := openEngine(t, cfg)
	for _, u := range []string{"alice", "bob"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckIn("alice", 1.0, 1.0, morning.Add(-time.Minute)); err != nil {
		t.Fatal(err)
	}
	ads := []Ad{
		{ID: "shoes", Text: "marathon running shoes cushioned sole", Bid: 0.4},
		{ID: "espresso", Text: "espresso coffee beans roasted daily", Bid: 0.6,
			Target: &Target{Lat: 1.0, Lng: 1.0, RadiusKm: 50}},
		{ID: "pizza", Text: "fresh pizza delivered hot tonight", Bid: 0.9},
	}
	for _, ad := range ads {
		if err := e.AddAd(ad); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Post("bob", "morning espresso before the marathon, shoes laced", morning); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTracedRecommendStageSpanInvariant: one traced recommend yields
// exactly one span per pipeline stage, in pipeline order, and the
// candidate counts form an attrition funnel — from the score stage onward
// each stage consumes exactly what the previous stage produced and never
// emits more than it consumed.
func TestTracedRecommendStageSpanInvariant(t *testing.T) {
	// The facade serves CAP; the subtest keeps the engine in the test name.
	t.Run("CAP", func(t *testing.T) {
		e := tracedEngine(t, trace.Config{SampleRate: 1})
		recs, tr, err := e.RecommendTraced("alice", 2, morning.Add(time.Minute), ServingPolicy{}, TraceRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatal("no recommendations")
		}
		if tr == nil {
			t.Fatal("no trace captured at sample rate 1")
		}

		wantStages := []string{"lookup", "retrieve", "score", "topk", "map", "policy"}
		if len(tr.Spans) != len(wantStages) {
			t.Fatalf("got %d spans %v, want one per stage %v", len(tr.Spans), tr.Spans, wantStages)
		}
		for i, want := range wantStages {
			if tr.Spans[i].Stage != want {
				t.Fatalf("span %d is %q, want %q (order must follow the pipeline)", i, tr.Spans[i].Stage, want)
			}
		}
		// Attrition funnel: after the score stage (which may widen the
		// candidate set with the static/geo remainder), each stage's
		// input equals the previous stage's output and output never
		// exceeds input.
		for i := 2; i < len(tr.Spans); i++ {
			sp := tr.Spans[i]
			if sp.Out > sp.In {
				t.Errorf("stage %s emitted more than it consumed: in=%d out=%d", sp.Stage, sp.In, sp.Out)
			}
			if i > 2 && sp.In != tr.Spans[i-1].Out {
				t.Errorf("stage %s in=%d does not match %s out=%d",
					sp.Stage, sp.In, tr.Spans[i-1].Stage, tr.Spans[i-1].Out)
			}
		}
		if final := tr.Spans[len(tr.Spans)-1].Out; final != len(recs) {
			t.Errorf("policy stage out=%d, response has %d ads", final, len(recs))
		}
		if tr.Outcome != trace.OutcomeOK || tr.CaptureReason != trace.ReasonSampled {
			t.Errorf("outcome=%q reason=%q", tr.Outcome, tr.CaptureReason)
		}
	})
}

// TestTraceRecordsAnswerPath: a CAP trace says whether the user's top-k view
// answered or the candidate set was re-ranked, and on either path the three
// core stages appear once each with counts that describe the work done —
// buffer entries and eligible candidates for a re-rank, the view's tracked
// and noted ads for a view answer.
func TestTraceRecordsAnswerPath(t *testing.T) {
	e := tracedEngine(t, trace.Config{SampleRate: 1})
	at := morning.Add(time.Minute)
	var paths []string
	for i := 0; i < 3; i++ {
		if i == 2 { // noted by the view, then scored by the next read
			if err := e.Post("bob", "espresso and pizza after the marathon", at); err != nil {
				t.Fatal(err)
			}
		}
		recs, tr, err := e.RecommendTraced("alice", 2, at, ServingPolicy{}, TraceRequest{})
		if err != nil || tr == nil || len(recs) != 2 {
			t.Fatalf("read %d: %d ads, trace %v, err %v", i, len(recs), tr != nil, err)
		}
		paths = append(paths, tr.Path)
		if len(tr.Spans) != 6 {
			t.Fatalf("read %d (%s): %d spans %v, want one per stage", i, tr.Path, len(tr.Spans), tr.Spans)
		}
		retrieve, score, topk := tr.Spans[1], tr.Spans[2], tr.Spans[3]
		if retrieve.Stage != "retrieve" || score.Stage != "score" || topk.Stage != "topk" {
			t.Fatalf("read %d: spans %v out of stage order", i, tr.Spans)
		}
		if score.Out > score.In || topk.In != score.Out || topk.Out != 2 {
			t.Errorf("read %d (%s): funnel retrieve %+v score %+v topk %+v", i, tr.Path, retrieve, score, topk)
		}
		// Three ads, all eligible for alice: a re-rank examines and offers
		// all three, and the view tracks all three (fewer than 4k exist);
		// the post raised each of them, so the last read also re-scores
		// three noted ads before it finds them tracked already.
		wantIn := []int{3, 3, 6}[i]
		if score.In != wantIn || score.Out != 3 || (tr.Path == "view" && retrieve.In != wantIn) {
			t.Errorf("read %d (%s): retrieve %+v score %+v, want %d candidates in and 3 out", i, tr.Path, retrieve, score, wantIn)
		}
	}
	if want := []string{"rerank", "view", "view"}; !slices.Equal(paths, want) {
		t.Fatalf("answer paths %v, want %v", paths, want)
	}
}

// TestStageSpansPerAnswerPath pins the six spans of a traced recommend — names,
// order and candidate counts — on every answer path: CAP's re-rank (a first
// read), its view (the same read again) and a k above the view ceiling
// (viewSlack × 65 > viewMaxTracked, ranked without a view). The fixture has
// three ads, all eligible for alice; two share terms with bob's post.
func TestStageSpansPerAnswerPath(t *testing.T) {
	type span struct {
		stage   string
		in, out int
	}
	spans := func(retrieve, score, topk, mapped [2]int) []span {
		return []span{{"lookup", 1, 1}, {"retrieve", retrieve[0], retrieve[1]}, {"score", score[0], score[1]},
			{"topk", topk[0], topk[1]}, {"map", mapped[0], mapped[1]}, {"policy", mapped[0], mapped[1]}}
	}
	reads := []struct {
		k     int
		path  string
		spans []span
	}{
		{2, "rerank", spans([2]int{2, 2}, [2]int{3, 3}, [2]int{3, 2}, [2]int{2, 2})}, // buffer entries; eligible with the static remainder
		{2, "view", spans([2]int{3, 3}, [2]int{3, 3}, [2]int{3, 2}, [2]int{2, 2})},   // tracked + noted ads re-scored
		{65, "rerank", spans([2]int{2, 2}, [2]int{3, 3}, [2]int{3, 3}, [2]int{3, 3})},
	}
	at := morning.Add(time.Minute)
	e := tracedEngine(t, trace.Config{SampleRate: 1})
	for i, r := range reads {
		_, tr, err := e.RecommendTraced("alice", r.k, at, ServingPolicy{}, TraceRequest{})
		if err != nil || tr == nil {
			t.Fatalf("read %d: trace %v, err %v", i, tr != nil, err)
		}
		var got []span
		for _, sp := range tr.Spans {
			got = append(got, span{sp.Stage, sp.In, sp.Out})
		}
		if !slices.Equal(got, r.spans) || tr.Path != r.path {
			t.Errorf("read %d (k=%d): path %q spans %v, want path %q spans %v", i, r.k, tr.Path, got, r.path, r.spans)
		}
	}
}

// TestScoreDecompositionSumsToScore: for every ad of a traced recommend,
// the additive decomposition text + geo + bid equals (within float
// tolerance) the score the ranking used — the acceptance criterion that
// makes the explanation trustworthy.
func TestScoreDecompositionSumsToScore(t *testing.T) {
	// The facade serves CAP; the subtest keeps the engine in the test name.
	t.Run("CAP", func(t *testing.T) {
		e := tracedEngine(t, trace.Config{SampleRate: 1})
		recs, tr, err := e.RecommendTraced("alice", 3, morning.Add(time.Minute), ServingPolicy{}, TraceRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil || len(tr.Ads) == 0 {
			t.Fatal("no traced ads")
		}
		if len(tr.Ads) != len(recs) {
			t.Fatalf("trace has %d ads, response has %d", len(tr.Ads), len(recs))
		}
		for i, ad := range tr.Ads {
			sum := ad.Text + ad.Geo + ad.Bid
			if diff := math.Abs(sum - ad.Score); diff > 1e-9 {
				t.Errorf("ad %s: text %g + geo %g + bid %g = %g, score %g (diff %g)",
					ad.AdID, ad.Text, ad.Geo, ad.Bid, sum, ad.Score, diff)
			}
			if ad.AdID != recs[i].AdID || ad.Score != recs[i].Score {
				t.Errorf("trace ad %d = %+v does not match response %+v", i, ad, recs[i])
			}
		}
		// The geo-targeted ad must carry a positive spatial component for
		// the checked-in user, or the decomposition is vacuous.
		for _, ad := range tr.Ads {
			if ad.AdID == "espresso" && ad.Geo <= 0 {
				t.Errorf("geo-targeted ad has geo component %g, want > 0", ad.Geo)
			}
		}
	})
}

// TestErrorTailCaptureBypassesSampling: with head sampling off, a failed
// recommend is still captured (reason "error"), while the successful one
// right before it is not.
func TestErrorTailCaptureBypassesSampling(t *testing.T) {
	e := tracedEngine(t, trace.Config{SampleRate: 0})

	if _, tr, err := e.RecommendTraced("alice", 2, morning, ServingPolicy{}, TraceRequest{}); err != nil {
		t.Fatal(err)
	} else if tr != nil {
		t.Fatal("successful request captured despite sampling off")
	}

	_, tr, err := e.RecommendTraced("nobody", 2, morning, ServingPolicy{}, TraceRequest{ID: "req-err-1"})
	if err == nil {
		t.Fatal("recommend for unknown user must fail")
	}
	if tr == nil {
		t.Fatal("errored request not tail-captured")
	}
	if tr.Outcome != trace.OutcomeError || tr.CaptureReason != trace.ReasonError {
		t.Errorf("outcome=%q reason=%q", tr.Outcome, tr.CaptureReason)
	}
	if !strings.Contains(tr.Error, "unknown user") {
		t.Errorf("trace error = %q", tr.Error)
	}
	if tr.ID != "req-err-1" {
		t.Errorf("trace did not adopt the request ID: %q", tr.ID)
	}
	if got := e.Tracer().Get("req-err-1"); got != tr {
		t.Error("captured trace not reachable through the store by request ID")
	}
}

// TestExplainWithoutStore: Explain returns a full trace even when no
// tracer is configured — the trace is built for the response and simply
// not retained.
func TestExplainWithoutStore(t *testing.T) {
	cfg := testConfig()
	e := openEngine(t, cfg)
	if err := e.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "a1", Text: "coffee espresso beans", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	if e.Tracer() != nil {
		t.Fatal("test wants an engine without a tracer")
	}

	// Untraced path stays untraced.
	if _, tr, err := e.RecommendTraced("alice", 2, morning, ServingPolicy{}, TraceRequest{}); err != nil {
		t.Fatal(err)
	} else if tr != nil {
		t.Fatal("trace built without tracer and without explain")
	}

	_, tr, err := e.RecommendTraced("alice", 2, morning, ServingPolicy{}, TraceRequest{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("explain did not return a trace")
	}
	if tr.CaptureReason != trace.ReasonExplain {
		t.Errorf("capture reason = %q, want %q", tr.CaptureReason, trace.ReasonExplain)
	}
	if len(tr.Spans) != 6 {
		t.Errorf("explain trace has %d spans, want 6", len(tr.Spans))
	}
}

// TestPolicyActionsRecorded: a traced policy recommend records why
// candidates were dropped — the frequency-capped ad appears as a policy
// action, not silently missing.
func TestPolicyActionsRecorded(t *testing.T) {
	e := tracedEngine(t, trace.Config{SampleRate: 1})
	policy := ServingPolicy{FrequencyCap: 1, FrequencyWindow: time.Hour}

	recs, _, err := e.RecommendTraced("alice", 1, morning.Add(time.Minute), policy, TraceRequest{})
	if err != nil || len(recs) == 0 {
		t.Fatalf("first policy recommend: %v (%d recs)", err, len(recs))
	}
	top := recs[0].AdID
	if _, err := e.RecordImpressionTo("alice", top, morning.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}

	recs, tr, err := e.RecommendTraced("alice", 1, morning.Add(2*time.Minute), policy, TraceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("no trace captured")
	}
	found := false
	for _, pa := range tr.Policy {
		if pa.AdID == top && pa.Action == "dropped_frequency_cap" {
			found = true
		}
	}
	if !found {
		t.Fatalf("frequency-cap drop of %q not recorded; actions: %+v, slate: %+v", top, tr.Policy, recs)
	}
	for _, r := range recs {
		if r.AdID == top {
			t.Fatalf("frequency-capped ad %q still in the slate", top)
		}
	}
}

// TestStageExemplarsLinkToCapturedTraces: a kept trace annotates the stage
// histograms, and StageExemplars surfaces its ID for every pipeline stage
// plus the end-to-end histogram.
func TestStageExemplarsLinkToCapturedTraces(t *testing.T) {
	e := tracedEngine(t, trace.Config{SampleRate: 1})
	_, tr, err := e.RecommendTraced("alice", 2, morning.Add(time.Minute), ServingPolicy{}, TraceRequest{ID: "req-ex-1"})
	if err != nil || tr == nil {
		t.Fatalf("traced recommend: %v, tr=%v", err, tr)
	}
	ex := e.StageExemplars()
	for _, stage := range []string{"lookup", "retrieve", "score", "topk", "map", "policy", "recommend"} {
		bucketEx, okStage := ex[stage]
		if !okStage || len(bucketEx) == 0 {
			t.Errorf("stage %q has no exemplar after a captured trace", stage)
			continue
		}
		found := false
		for _, be := range bucketEx {
			if be.TraceID == "req-ex-1" {
				found = true
			}
		}
		if !found {
			t.Errorf("stage %q exemplars %+v do not carry the captured trace ID", stage, bucketEx)
		}
	}
}

// TestRecommendUntracedZeroExtraAllocations: with tracing disabled the
// recommend path must not allocate more than it did before the flight
// recorder existed — the nil-tracer branch is free.
func TestRecommendUntracedZeroExtraAllocations(t *testing.T) {
	cfg := testConfig()
	e := openEngine(t, cfg)
	if err := e.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "a1", Text: "coffee espresso beans", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Post("alice", "espresso time", morning); err != nil {
		t.Fatal(err)
	}
	at := morning.Add(time.Minute)
	if _, err := e.Recommend("alice", 2, at); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Recommend("alice", 2, at); err != nil {
			t.Fatal(err)
		}
	})
	// The CAP recommend path costs ~13 allocations (collector, results,
	// recommendations). Anything materially above that means the disabled
	// tracer is no longer free.
	if allocs > 16 {
		t.Errorf("untraced recommend costs %.0f allocs/op, want <= 16", allocs)
	}
}
