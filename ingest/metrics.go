package ingest

import "caar/obs"

// ackBuckets covers the accept-to-durable window: sub-millisecond when a
// batch fills instantly, up to seconds behind a slow disk.
var ackBuckets = obs.ExpBuckets(50e-6, 2, 18) // 50 µs .. ~6.5 s

// metrics bundles the ingest pipeline's observability collectors.
type metrics struct {
	accepted      *obs.Counter
	rejected      *obs.Counter
	applied       *obs.Counter
	applyErrors   *obs.Counter
	ackSeconds    *obs.Histogram
	commitSeconds *obs.Histogram
	lastBatch     *obs.Gauge
}

// newMetrics registers the caar_ingest_* family on reg. depth is read at
// scrape time so the gauge never touches the hot path.
func newMetrics(reg *obs.Registry, depth func() float64) *metrics {
	reg.GaugeFunc("caar_ingest_queue_depth",
		"Posts and check-ins accepted into the ingest ring and not yet committed.", depth)
	return &metrics{
		accepted: reg.Counter("caar_ingest_accepted_total",
			"Writes accepted into the ingest ring."),
		rejected: reg.Counter("caar_ingest_rejected_total",
			"Writes rejected because the ingest ring was full (served as 429)."),
		applied: reg.Counter("caar_ingest_applied_total",
			"Committed writes applied to the engine by the fan-out applier."),
		applyErrors: reg.Counter("caar_ingest_apply_errors_total",
			"Committed writes the engine rejected at apply time (post-ack; replay re-derives the same rejection)."),
		ackSeconds: reg.Histogram("caar_ingest_ack_seconds",
			"Latency from ring accept to durable acknowledgement (the group-commit wait).", ackBuckets),
		commitSeconds: reg.Histogram("caar_ingest_commit_seconds",
			"Latency of one group commit: batch journal append plus its single fsync (policy permitting); its _count is the number of group commits.", ackBuckets),
		lastBatch: reg.Gauge("caar_ingest_last_batch_entries",
			"Size of the most recent group commit; caar_ingest_accepted_total over caar_ingest_commit_seconds_count gives the mean batch size."),
	}
}
