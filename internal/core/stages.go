package core

import "time"

// Stage names one phase of a CAP TopAds query, for the facade's per-stage
// latency spans:
//
//   - StageRetrieve — obtaining the text-relevant candidate set. CAP reads
//     its pre-materialized candidate buffer, or its view, where IL would walk
//     the inverted index per query: the paper's contribution is precisely
//     that this stage collapses to ~0.
//   - StageScore — eligibility gating (slot, geo, budget) plus scoring of
//     the candidates, including the spatial/static remainder from the grid
//     index, feeding the top-k collector. A ranking skips, unread, every
//     candidate whose score ceiling the collector already turns away.
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
// candidates the text path never saw. Its out-count is the eligible
// candidates that reached the collector: a ranking does not read, and does
// not count, one whose score ceiling could not enter it.
type Span struct {
	D       time.Duration
	In, Out int
}

// Query is CAP's record of its last TopAds: one span per stage, and how it
// was answered — "view" or "rerank". Every answer path writes all of it, so
// it is valid after every TopAds that succeeded, until the next; callers read
// it under the lock that serialized the query. The baselines time nothing,
// so the clock reads stay out of the evaluation's baseline timings; theirs is
// the zero Query.
type Query struct {
	Stages [NumStages]Span
	Path   string
}

// LastQuery returns the record of the last TopAds.
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
