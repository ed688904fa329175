// Package trace is the request-scoped flight recorder of the recommend
// path: one Trace per recorded query, carrying the per-stage latency spans
// with candidate counts (the attrition funnel lookup → retrieve → score →
// topk → map → policy), the additive score decomposition of every returned
// ad, and the policy decisions that shaped the final slate.
//
// Aggregate histograms (package obs) answer "how slow is the service";
// traces answer "why was *this* request slow" and "why was *this* ad ranked
// above that one". The two link up through the trace ID, which the serving
// layer unifies with X-Request-Id, and through bucket exemplars attached to
// the stage histograms.
//
// Capture policy lives in Store: head sampling keeps a configurable fraction
// of ordinary requests, while slow and errored requests are captured
// unconditionally (tail capture), so the interesting traces survive even at
// 1-in-10k sampling.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
	"time"
)

// Outcome values of a finished trace.
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
)

// Capture reasons recorded in Trace.CaptureReason. Ordered by precedence:
// an explain-forced capture reports "explain" even if it was also sampled.
const (
	ReasonExplain = "explain" // forced by ?explain=1 / TraceRequest.Explain
	ReasonError   = "error"   // tail capture: the request failed
	ReasonSlow    = "slow"    // tail capture: duration ≥ the slow threshold
	ReasonSampled = "sampled" // head sampling admitted it
)

// Span is one pipeline stage of a traced request. In and Out are the
// candidate counts flowing into and out of the stage: retrieve reports the
// text-candidate set it produced, score reports every candidate examined
// (text plus the static/geo remainder) against the number that survived
// eligibility gating, topk the collector submissions against the ranked
// results, and map/policy the slate as it narrows to the response.
type Span struct {
	Stage           string  `json:"stage"`
	DurationSeconds float64 `json:"duration_seconds"`
	In              int     `json:"in"`
	Out             int     `json:"out"`
}

// AdScore is the additive score decomposition of one returned ad:
// Score = text + geo + bid (each term already weighted, text including the
// recency-decayed window context). The terms sum to the ranking score.
type AdScore struct {
	AdID  string  `json:"ad_id"`
	Score float64 `json:"score"`
	Text  float64 `json:"text"`
	Geo   float64 `json:"geo"`
	Bid   float64 `json:"bid"`
}

// PolicyAction records one serving-policy decision about a candidate that
// did not pass through unchanged (e.g. "dropped_frequency_cap").
type PolicyAction struct {
	AdID   string `json:"ad_id"`
	Action string `json:"action"`
}

// Trace is the flight record of one recommend request. It is built by a
// single goroutine while the request runs and must not be mutated after it
// is submitted to a Store, where concurrent readers may hold it.
//
// The request facts (Path, Shard, LockWaitSeconds) are typed fields:
// recording them is a plain store with no map or formatting allocation,
// which keeps full-rate tracing cheap enough to leave on.
type Trace struct {
	ID              string    `json:"id"`
	User            string    `json:"user"`
	K               int       `json:"k"`
	At              time.Time `json:"at"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	// Path is how CAP answered: from the user's "view", or by a "rerank".
	Path string `json:"path,omitempty"`
	// Shard is the user shard the request was serialized on.
	Shard int `json:"shard"`
	// LockWaitSeconds is the time spent waiting for that shard's lock — the
	// first suspect when a trace is slow but its stage spans are not.
	LockWaitSeconds float64        `json:"lock_wait_seconds"`
	Spans           []Span         `json:"spans"`
	Ads             []AdScore      `json:"ads,omitempty"`
	Policy          []PolicyAction `json:"policy_actions,omitempty"`
	Outcome         string         `json:"outcome"`
	Error           string         `json:"error,omitempty"`
	CaptureReason   string         `json:"capture_reason,omitempty"`

	// HeadSampled and Forced drive the store's capture decision. They are
	// set before Store.Add and are not part of the serialized trace.
	HeadSampled bool `json:"-"`
	Forced      bool `json:"-"`

	// Inline backing arrays for Spans and Ads: the usual trace (6 stages,
	// k ≤ 8 ads) lives in the Trace's own allocation; only unusually wide
	// requests spill to a grown slice.
	spanbuf [8]Span
	adbuf   [8]AdScore
}

// idPrefix makes minted trace IDs unique across process restarts; the
// atomic sequence makes them unique within one. The "t" prefix separates
// engine-minted IDs from server-minted request IDs at a glance.
var idPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var idSeq atomic.Uint64

// NewID mints a process-unique trace ID.
func NewID() string {
	return "t" + idPrefix + "-" + strconv.FormatUint(idSeq.Add(1), 10)
}

// New starts a trace for one recommend request. An empty id mints one;
// passing the request's X-Request-Id instead unifies the trace with its
// access-log lines.
func New(id, user string, k int, at, start time.Time) *Trace {
	if id == "" {
		id = NewID()
	}
	t := &Trace{
		ID:    id,
		User:  user,
		K:     k,
		At:    at,
		Start: start,
	}
	t.Spans = t.spanbuf[:0]
	t.Ads = t.adbuf[:0]
	return t
}

// AddSpan appends one stage span.
func (t *Trace) AddSpan(stage string, d time.Duration, in, out int) {
	t.Spans = append(t.Spans, Span{Stage: stage, DurationSeconds: d.Seconds(), In: in, Out: out})
}

// AddAd appends one returned ad's score decomposition.
func (t *Trace) AddAd(a AdScore) { t.Ads = append(t.Ads, a) }

// AddPolicyAction records a serving-policy decision about a candidate.
func (t *Trace) AddPolicyAction(adID, action string) {
	t.Policy = append(t.Policy, PolicyAction{AdID: adID, Action: action})
}

// Finish seals the trace with its total duration and outcome.
func (t *Trace) Finish(elapsed time.Duration, err error) {
	t.DurationSeconds = elapsed.Seconds()
	if err != nil {
		t.Outcome = OutcomeError
		t.Error = err.Error()
		return
	}
	t.Outcome = OutcomeOK
}

// Summary is the listing view of a stored trace (/v1/traces).
type Summary struct {
	ID              string    `json:"id"`
	User            string    `json:"user"`
	K               int       `json:"k"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	Outcome         string    `json:"outcome"`
	CaptureReason   string    `json:"capture_reason"`
	Ads             int       `json:"ads"`
}

// Summary returns the trace's listing view.
func (t *Trace) Summary() Summary {
	return Summary{
		ID:              t.ID,
		User:            t.User,
		K:               t.K,
		Start:           t.Start,
		DurationSeconds: t.DurationSeconds,
		Outcome:         t.Outcome,
		CaptureReason:   t.CaptureReason,
		Ads:             len(t.Ads),
	}
}
