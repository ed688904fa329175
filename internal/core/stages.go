package core

import "time"

// Stage names one phase of a TopAds query, for per-stage latency spans.
// The decomposition follows the serving pipeline all three engines share,
// even though they distribute the work differently:
//
//   - StageRetrieve — obtaining the text-relevant candidate set. IL pays an
//     inverted-index walk per query here; CAP reads its pre-materialized
//     candidate buffer (the paper's contribution is precisely that this
//     stage collapses to ~0); RS has no retrieval structure at all.
//   - StageScore — eligibility gating (slot, geo, budget) plus scoring of
//     every candidate, including the spatial/static remainder from the
//     grid index, feeding the top-k collector.
//   - StageTopK — extracting the ranked top-k from the collector and
//     resolving score decompositions.
type Stage uint8

// TopAds stages, in pipeline order.
const (
	StageRetrieve Stage = iota
	StageScore
	StageTopK
	NumStages
)

// Span is one stage of a query: its elapsed time and the candidate counts
// flowing into (In) and out of (Out) it — the attrition funnel a request
// trace renders (retrieve 4312 → score 987 → topk 10). The score stage's
// in-count may exceed retrieve's out-count: the static/geo remainder adds
// candidates the text path never saw.
type Span struct {
	D       time.Duration
	In, Out int
}

// Query is an engine's record of its last TopAds: one span per stage, and
// how CAP answered it — "view" or "rerank" ("" for RS and IL). Every answer
// path writes all of it, so it is valid after every TopAds that succeeded,
// until the next; callers read it under the lock that serialized the query.
type Query struct {
	Stages [NumStages]Span
	Path   string
}

// LastQuery implements Shardable.
func (b *base) LastQuery() Query { return b.last }

// stageDone records a stage as ending now and returns now, the start point
// of the next stage, so consecutive stages share a single clock read.
func (b *base) stageDone(s Stage, start time.Time, in, out int) time.Time {
	now := time.Now()
	b.stageSpan(s, start, now, in, out)
	return now
}

// stageSpan records a stage after the fact, its end having been read earlier.
func (b *base) stageSpan(s Stage, start, end time.Time, in, out int) {
	b.last.Stages[s] = Span{D: end.Sub(start), In: in, Out: out}
}
