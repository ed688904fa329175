package obs

import "time"

// Histogram exemplars link aggregate latency buckets back to individual
// traced requests: when the trace store keeps a request's flight record,
// the engine attaches the trace ID to the bucket each stage span landed in.
// A spike in the slowest buckets then carries the ID of a concrete captured
// trace to open, instead of only a count.
//
// The Prometheus 0.0.4 text format cannot carry exemplars on sample lines,
// so they are not part of WritePrometheus output; the serving layer exposes
// them through its trace-listing endpoint instead.

// BucketExemplar is the latest exemplar attached to one histogram bucket.
type BucketExemplar struct {
	// BucketLE is the bucket's upper bound rendered as in the exposition
	// ("0.001", "+Inf") — a string because JSON cannot encode +Inf.
	BucketLE string  `json:"bucket_le"`
	Value    float64 `json:"value"`
	TraceID  string  `json:"trace_id"`
	UnixNano int64   `json:"unix_nano"`
}

// AttachExemplar links traceID to the bucket that v falls into, replacing
// that bucket's previous exemplar. It does not count v as an observation —
// the observation was already recorded by Observe; this only annotates it.
// Safe for concurrent use; a no-op for an empty traceID.
func (h *Histogram) AttachExemplar(v float64, traceID string) {
	if traceID == "" {
		return
	}
	idx := h.bucketIndex(v)
	le := "+Inf"
	if idx < len(h.bounds) {
		le = formatFloat(h.bounds[idx])
	}
	h.exMu.Lock()
	if h.ex == nil {
		h.ex = make([]BucketExemplar, len(h.counts))
	}
	h.ex[idx] = BucketExemplar{BucketLE: le, Value: v, TraceID: traceID, UnixNano: time.Now().UnixNano()}
	h.exMu.Unlock()
}

// Exemplars returns the attached exemplars ordered by bucket (slowest
// last), or nil when none were attached.
func (h *Histogram) Exemplars() []BucketExemplar {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	var out []BucketExemplar
	for _, ex := range h.ex {
		if ex.TraceID != "" {
			out = append(out, ex)
		}
	}
	return out
}
