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
	numStages
)

// String returns the stage's metric label.
func (s Stage) String() string {
	switch s {
	case StageRetrieve:
		return "retrieve"
	case StageScore:
		return "score"
	case StageTopK:
		return "topk"
	default:
		return "unknown"
	}
}

// StageRecorder receives, for each TopAds stage, its elapsed time and the
// candidate counts flowing into (in) and out of (out) the stage — the
// attrition funnel a request trace renders (retrieve 4312 → score 987 →
// topk 10). The score stage's in-count may exceed retrieve's out-count:
// the static/geo remainder adds candidates the text path never saw. It is
// called while the engine's serializing lock is held, so implementations
// must be fast and must not call back into the engine.
type StageRecorder func(s Stage, d time.Duration, in, out int)

// StageSetter is implemented by every engine (via base); the facade uses it
// to attach its metrics registry without widening the Recommender interface.
type StageSetter interface {
	SetStageRecorder(StageRecorder)
}

// SetStageRecorder installs (or, with nil, removes) the per-stage span
// recorder. Not safe to call concurrently with queries; set it at wiring
// time, before the engine serves traffic.
func (b *base) SetStageRecorder(f StageRecorder) { b.stages = f }

// stageStart returns the stage clock's start point, or the zero time when
// no recorder is installed — keeping the disabled path free of time.Now
// calls on the query hot path.
func (b *base) stageStart() time.Time {
	if b.stages == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageDone records one stage span with its candidate counts and returns
// the start point of the next stage, so consecutive stages share a single
// clock read.
func (b *base) stageDone(s Stage, start time.Time, in, out int) time.Time {
	now := b.stageStart()
	b.stageSpan(s, start, now, in, out)
	return now
}

// stageSpan records a stage after the fact, its end having been read earlier.
func (b *base) stageSpan(s Stage, start, end time.Time, in, out int) {
	if b.stages != nil && !start.IsZero() {
		b.stages(s, end.Sub(start), in, out)
	}
}
