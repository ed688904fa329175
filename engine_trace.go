package caar

import (
	"time"

	"caar/obs"
	"caar/obs/trace"
)

// Request-scoped tracing and score explainability: the engine-side half of
// the flight recorder. The recommend pipeline (engine.go) builds a
// trace.Trace per recorded request; this file holds the public API and the
// begin/finish glue that decides when a trace exists, when it is kept, and
// how a kept trace links back into the aggregate stage histograms
// (exemplars).

// TraceRequest carries per-request tracing directives through the
// recommend pipeline. The zero value is the common case: trace only if a
// tracer is configured, under its sampling policy.
type TraceRequest struct {
	// ID is adopted as the trace ID — the serving layer passes the request's
	// X-Request-Id so access-log lines, slow-request logs and stored traces
	// all correlate on one identifier. Empty mints a fresh ID.
	ID string
	// Explain forces the trace to be captured and returned even when head
	// sampling would drop it, and even when no trace store is configured
	// (the trace is then returned without being retained).
	Explain bool
}

// Tracer returns the trace store the engine records into (Config.Tracer),
// or nil when request tracing is disabled.
func (e *Engine) Tracer() *trace.Store { return e.tracer }

// RecommendTraced is Recommend with the serving policy and flight recorder
// exposed: it returns the recommendations plus the request's trace when the
// trace was captured (head-sampled, slow, errored, or forced by
// treq.Explain), nil otherwise. The returned trace carries one span per
// pipeline stage with candidate in/out counts, the additive score
// decomposition of every returned ad, and any policy drop decisions.
func (e *Engine) RecommendTraced(user string, k int, at time.Time, policy ServingPolicy, treq TraceRequest) ([]Recommendation, *trace.Trace, error) {
	return e.recommend(user, k, at, policy, treq)
}

// beginTrace starts the request's flight record, or returns nil when
// neither a tracer nor an explain request asks for one — the hot path's
// only tracing cost. The head-sampling decision is drawn here (it must
// advance per request, not per capture) and consumed by Store.Add.
func (e *Engine) beginTrace(treq TraceRequest, user string, k int, at, start time.Time) *trace.Trace {
	if e.tracer == nil && !treq.Explain {
		return nil
	}
	tr := trace.New(treq.ID, user, k, at, start)
	tr.Forced = treq.Explain
	if e.tracer != nil {
		tr.HeadSampled = e.tracer.SampleNext()
	}
	tr.Algorithm = string(e.Algorithm())
	return tr
}

// finishTrace seals tr and submits it to the store, returning the trace
// when it was captured (or forced without a store) and nil otherwise. A
// kept trace is also attached as an exemplar to the stage and end-to-end
// latency histograms, so a histogram spike links to a concrete trace ID.
func (e *Engine) finishTrace(tr *trace.Trace, elapsed time.Duration, err error) *trace.Trace {
	if tr == nil {
		return nil
	}
	tr.Finish(elapsed, err)
	kept := false
	switch {
	case e.tracer != nil:
		kept = e.tracer.Add(tr)
	case tr.Forced:
		tr.CaptureReason = trace.ReasonExplain
		kept = true
	}
	if !kept {
		return nil
	}
	e.obsm.attachExemplars(tr)
	return tr
}

// StageExemplars returns, per pipeline stage (plus "recommend" for the
// end-to-end latency), the trace IDs attached to the stage histogram's
// buckets — the bridge from a latency spike on a dashboard to a captured
// trace in /v1/traces/{id}. Stages with no captured traces are omitted.
func (e *Engine) StageExemplars() map[string][]obs.BucketExemplar {
	out := make(map[string][]obs.BucketExemplar, numStages+1)
	for _, st := range e.obsm.stages {
		if ex := st.hist.Exemplars(); len(ex) > 0 {
			out[st.name] = ex
		}
	}
	if ex := e.obsm.recommendSeconds.Exemplars(); len(ex) > 0 {
		out["recommend"] = ex
	}
	return out
}
