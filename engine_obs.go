package caar

import (
	"sync/atomic"
	"time"

	"caar/internal/core"
	"caar/internal/textproc"
	"caar/obs"
	"caar/obs/trace"
)

// Engine observability: every engine carries a metrics registry (its own
// private one unless Config.Metrics supplies a shared registry) and records
// the serving pipeline's per-stage latency spans plus sampled gauges over
// live state. Every family has a reader — a run-book step, a bench probe,
// an SLO objective or a test that asserts its value — and README.md
// §Observability names it; a family without one is deleted. The numbers
// /v1/stats already serves (users, ads, edges, shards, posts, check-ins)
// have no gauge twin.

// StageBuckets is the bucket layout of per-stage recommend spans: finer
// than request-level LatencyBuckets because CAP's retrieve stage sits in
// the sub-microsecond range its incremental design was built for.
var stageBuckets = obs.ExpBuckets(1e-6, 2, 22) // 1 µs .. ~2.1 s

// The recommend pipeline's stages, in order. The core times the three from
// stageRetrieve on, in its own order (core.Stage); the facade the rest.
const (
	stageLookup = iota
	stageRetrieve
	stageScore
	stageTopK
	stageMap
	stagePolicy
	numStages
)

// stage is one row of the stage table: the name that labels its histogram,
// its span in a request trace and its exemplars, and the histogram.
type stage struct {
	name string
	hist *obs.Histogram
}

// engineMetrics bundles the engine's registered collectors. All fields are
// non-nil once the engine is open.
type engineMetrics struct {
	stages [numStages]stage

	recommendSeconds *obs.Histogram
	recommendErrors  *obs.Counter
	continuousErrors *obs.Counter
	lockWaitSeconds  *obs.Histogram
	vectorizeSeconds *obs.Histogram
	impressions      *obs.CounterVec

	// lastExemplarNano gates how often ordinary sampled traces refresh the
	// histogram exemplars (see attachExemplars).
	lastExemplarNano atomic.Int64
}

// newEngineMetrics registers the engine's collectors on reg and installs
// gauge functions sampling e's live state at scrape time.
func newEngineMetrics(reg *obs.Registry, e *Engine) *engineMetrics {
	m := &engineMetrics{
		recommendSeconds: reg.Histogram("caar_engine_recommend_seconds",
			"End-to-end engine recommend latency; its _count is the number of completed recommend queries.", stageBuckets),
		recommendErrors: reg.Counter("caar_engine_recommend_errors_total",
			"Recommend queries rejected with an error."),
		continuousErrors: reg.Counter("caar_engine_continuous_errors_total",
			"Per-user TopAds failures swallowed on the continuous delivery path."),
		lockWaitSeconds: reg.Histogram("caar_engine_shard_lock_wait_seconds",
			"Time a recommend query waited for its shard's serializing lock.", stageBuckets),
		vectorizeSeconds: reg.Histogram("caar_engine_vectorize_seconds",
			"Text pipeline vectorization latency (posts and ad copy).", stageBuckets),
		impressions: reg.CounterVec("caar_engine_impressions_total",
			"Impression billing attempts by outcome.", "result"),
	}
	stageSeconds := reg.HistogramVec("caar_engine_recommend_stage_seconds",
		"Latency of each recommend pipeline stage (lookup, retrieve, score, topk, map, policy).",
		stageBuckets, "stage")
	for i, name := range [numStages]string{"lookup", "retrieve", "score", "topk", "map", "policy"} {
		m.stages[i] = stage{name: name, hist: stageSeconds.With(name)}
	}

	reg.GaugeFunc("caar_engine_index_postings", "Total (term, ad) postings in the inverted index the shards share.", func() float64 {
		return float64(e.ads.Postings())
	})
	reg.GaugeFunc("caar_engine_candidate_buffer_entries", "CAP candidate-buffer entries summed over users.", func() float64 {
		return float64(e.bufferEntries())
	})
	reg.GaugeFunc("caar_engine_cached_messages", "Messages with live shared delta lists (CAP fan-out sharing).", func() float64 {
		return float64(e.ads.CachedMessages())
	})
	paths := reg.CounterVec("caar_engine_topads_total",
		"Top-k queries (feed renders and continuous refreshes) by path: answered from the user's top-k view, or by re-ranking the candidate buffer.", "path")
	// sumCAP adds up a pair of counters every shard's CAP keeps, reading
	// atomics under no shard lock.
	sumCAP := func(read func(*core.CAP) (uint64, uint64)) (a, b uint64) {
		e.eachCAP(func(c *core.CAP) {
			x, y := read(c)
			a, b = a+x, b+y
		})
		return a, b
	}
	paths.Func(func() uint64 { view, _ := sumCAP((*core.CAP).TopAdsPaths); return view }, "view")
	paths.Func(func() uint64 { _, rerank := sumCAP((*core.CAP).TopAdsPaths); return rerank }, "rerank")
	// What the lazy candidate buffer did and what it was spared:
	// skipped ÷ (merged + skipped) is the share of deliveries whose merge
	// nobody would have read.
	catchUps := reg.CounterVec("caar_engine_buffer_catchups_total",
		"Candidate-buffer catch-ups before a read, by kind: one merge pass over everything delivered since the last, or a rebuild from the window aggregate.", "kind")
	catchUps.Func(func() uint64 { merge, _ := sumCAP((*core.CAP).CatchUps); return merge }, "merge")
	catchUps.Func(func() uint64 { _, rebuild := sumCAP((*core.CAP).CatchUps); return rebuild }, "rebuild")
	fates := reg.CounterVec("caar_engine_buffer_deliveries_total",
		"Deliveries by what became of them in the follower's candidate buffer: merged by a catch-up, or skipped — the follower had no buffer, or it was freed unread.", "fate")
	fates.Func(func() uint64 { merged, _ := sumCAP((*core.CAP).Deliveries); return merged }, "merged")
	fates.Func(func() uint64 { _, skipped := sumCAP((*core.CAP).Deliveries); return skipped }, "skipped")
	return m
}

// record is where every recommend stage goes, once: its histogram, and the
// request's trace when one is being built (tr non-nil).
func (m *engineMetrics) record(tr *trace.Trace, s int, d time.Duration, in, out int) {
	st := &m.stages[s]
	st.hist.ObserveDuration(d)
	if tr != nil {
		tr.AddSpan(st.name, d, in, out)
	}
}

// recordSince records a facade stage that started at start and ends now, and
// returns now — the next stage's start, so the two share one clock read.
func (m *engineMetrics) recordSince(tr *trace.Trace, s int, start time.Time, in, out int) time.Time {
	now := time.Now()
	m.record(tr, s, now.Sub(start), in, out)
	return now
}

// exemplarRefresh bounds how often ordinary sampled traces rewrite the
// histogram exemplars. Exemplars only need freshness on a human timescale;
// without the gate, full-rate tracing would take seven shared histogram
// mutexes on every request, and a preempted holder stalls the whole
// serving path — a pure p99 tax for no operator benefit.
const exemplarRefresh = 100 * time.Millisecond

// attachExemplars links a captured trace into the aggregate view: each
// stage span becomes the exemplar of the bucket it landed in, and the
// end-to-end duration annotates the recommend histogram — so the slowest
// buckets on a dashboard carry the ID of a trace that actually hit them.
// Interesting captures (slow, errored, explained) always attach; routine
// head-sampled ones refresh the exemplars at most every exemplarRefresh.
func (m *engineMetrics) attachExemplars(tr *trace.Trace) {
	if tr.CaptureReason == trace.ReasonSampled {
		now := time.Now().UnixNano()
		last := m.lastExemplarNano.Load()
		if now-last < int64(exemplarRefresh) || !m.lastExemplarNano.CompareAndSwap(last, now) {
			return
		}
	}
	for _, sp := range tr.Spans {
		for _, st := range m.stages {
			if st.name == sp.Stage {
				st.hist.AttachExemplar(sp.DurationSeconds, tr.ID)
			}
		}
	}
	m.recommendSeconds.AttachExemplar(tr.DurationSeconds, tr.ID)
}

// vectorize wraps a text-pipeline call with its latency span.
func (e *Engine) vectorize(text string) textproc.SparseVector {
	start := time.Now()
	vec := e.pipeline.Vector(text)
	e.obsm.vectorizeSeconds.ObserveDuration(time.Since(start))
	return vec
}

// HealthProblems reports conditions that should mark the deployment
// degraded (not dead). A bare engine persists nothing, so it has none to
// report: a deployment that persists wraps it (journal.Logged), and a
// snapshot is saved only once the server has stopped listening.
func (e *Engine) HealthProblems() []string { return nil }
