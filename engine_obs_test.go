package caar

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"caar/obs"
	"caar/obs/trace"
)

// TestRecommendTouchesEveryStage: one recommendation request must leave a
// sample in every pipeline-stage histogram — lookup, retrieve, score, topk,
// map and policy — so a stage that silently stops being measured fails
// loudly here rather than as a flat line on a dashboard.
func TestRecommendTouchesEveryStage(t *testing.T) {
	cfg := testConfig()
	cfg.Metrics = obs.NewRegistry()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"u1", "u2"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Follow("u1", "u2"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "a1", Text: "coffee espresso pastries", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Post("u2", "morning coffee espresso downtown", morning); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recommend("u1", 3, morning.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()

	for _, stage := range []string{"lookup", "retrieve", "score", "topk", "map", "policy"} {
		want := fmt.Sprintf(`caar_engine_recommend_stage_seconds_count{stage=%q} 1`, stage)
		if !strings.Contains(body, want) {
			t.Errorf("stage %q not recorded: missing %q", stage, want)
		}
	}
	if !strings.Contains(body, "caar_engine_recommend_seconds_count 1") {
		t.Error("total recommend latency not recorded")
	}
	// Post and AddAd both vectorize text.
	if !strings.Contains(body, "caar_engine_vectorize_seconds_count 2") {
		t.Error("vectorization latency not recorded for post + ad")
	}
}

// TestStageCountsAreRequests: with continuous refreshes on, the stage family
// still holds one sample per stage per recommend request and none per refresh
// — every request appears in every family, and the family counts requests.
// Refreshes are counted by caar_engine_topads_total.
func TestStageCountsAreRequests(t *testing.T) {
	cfg := testConfig()
	cfg.ContinuousK = 2
	cfg.OnRecommend = func(string, []Recommendation) {}
	cfg.Metrics = obs.NewRegistry()
	e := openEngine(t, cfg)
	for _, u := range []string{"poster", "f1", "f2", "f3"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
		if u != "poster" {
			if err := e.Follow(u, "poster"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.AddAd(Ad{ID: "a1", Text: "coffee espresso pastries", Bid: 0.5}); err != nil {
		t.Fatal(err)
	}
	const posts, reads = 5, 3
	for i := 0; i < posts; i++ {
		if err := e.Post("poster", "morning coffee espresso downtown", morning.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < reads; i++ {
		if _, err := e.Recommend("f1", 2, morning.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, stage := range []string{"lookup", "retrieve", "score", "topk", "map", "policy"} {
		want := fmt.Sprintf(`caar_engine_recommend_stage_seconds_count{stage=%q} %d`, stage, reads)
		if !strings.Contains(body, want) {
			t.Errorf("stage %q: want %q in\n%s", stage, want, grepLines(body, "caar_engine_recommend_stage_seconds_count"))
		}
	}
	// Four feeds (three followers and the poster) refreshed per post.
	var view, rerank int
	fmt.Sscanf(grepLines(body, `caar_engine_topads_total{path="view"}`), `caar_engine_topads_total{path="view"} %d`, &view)
	fmt.Sscanf(grepLines(body, `caar_engine_topads_total{path="rerank"}`), `caar_engine_topads_total{path="rerank"} %d`, &rerank)
	if view+rerank != posts*4+reads {
		t.Errorf("caar_engine_topads_total: %d view + %d rerank, want %d refreshes + %d reads", view, rerank, posts*4, reads)
	}
}

// grepLines returns the lines of s that contain substr, newline-joined.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestExemplarRefreshThrottle: routine head-sampled traces may rewrite the
// histogram exemplars at most once per exemplarRefresh (they take seven
// shared histogram mutexes, a pure p99 tax at full tracing rate), while
// interesting captures — slow, errored, explained — always attach. The gate
// is the lastExemplarNano CAS in attachExemplars.
func TestExemplarRefreshThrottle(t *testing.T) {
	e, err := Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := e.obsm

	mkTrace := func(id, reason string) *trace.Trace {
		return &trace.Trace{ID: id, CaptureReason: reason, DurationSeconds: 0.002}
	}
	// The slowest exemplar of the recommend histogram, as /v1/traces lists it.
	slowest := func() string {
		ex := e.StageExemplars()["recommend"]
		if len(ex) == 0 {
			return ""
		}
		return ex[len(ex)-1].TraceID
	}

	// First sampled trace lands: the gate starts at zero, so now-last is
	// far past the refresh interval.
	m.attachExemplars(mkTrace("t-first", trace.ReasonSampled))
	if got := slowest(); got != "t-first" {
		t.Fatalf("first sampled trace did not attach: exemplar = %q", got)
	}

	// A second sampled trace inside the refresh window must be dropped.
	m.attachExemplars(mkTrace("t-throttled", trace.ReasonSampled))
	if got := slowest(); got != "t-first" {
		t.Errorf("sampled trace inside refresh window overwrote exemplar: %q", got)
	}

	// Interesting captures bypass the throttle entirely.
	for _, reason := range []string{trace.ReasonSlow, trace.ReasonError, trace.ReasonExplain} {
		id := "t-" + reason
		m.attachExemplars(mkTrace(id, reason))
		if got := slowest(); got != id {
			t.Errorf("capture reason %q throttled: exemplar = %q, want %q", reason, got, id)
		}
	}

	// Once the refresh interval has passed, sampled traces attach again.
	m.lastExemplarNano.Store(time.Now().Add(-2 * exemplarRefresh).UnixNano())
	m.attachExemplars(mkTrace("t-after-window", trace.ReasonSampled))
	if got := slowest(); got != "t-after-window" {
		t.Errorf("sampled trace after refresh window did not attach: exemplar = %q", got)
	}
}

// TestEngineExposesMetricFamilies: the engine registry alone must expose a
// substantial family set (the acceptance floor for the whole process is 20
// across engine + server + journal).
func TestEngineExposesMetricFamilies(t *testing.T) {
	cfg := testConfig()
	cfg.Metrics = obs.NewRegistry()
	if _, err := Open(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	families := strings.Count(buf.String(), "# TYPE ")
	if families < 15 {
		t.Fatalf("engine registry exposes %d families, want >= 15:\n%s", families, buf.String())
	}
}
