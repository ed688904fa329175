package journal

import (
	"caar/obs"
)

// fsyncBuckets covers the disk-flush latency range: fast NVMe fsyncs land
// around tens of microseconds, a struggling disk in the seconds.
var fsyncBuckets = obs.ExpBuckets(10e-6, 2, 20) // 10 µs .. ~5.2 s

// Metrics bundles the journal's observability collectors. Register one on
// the process registry with NewMetrics and attach it to a Writer via
// SetMetrics; a Writer without metrics records nothing.
type Metrics struct {
	appends      *obs.Counter
	appendBytes  *obs.Counter
	appendErrors *obs.Counter
	fsyncSeconds *obs.Histogram
	degraded     *obs.Gauge

	replayApplied   *obs.Gauge
	replaySkipped   *obs.Gauge
	replayDiscarded *obs.Gauge
}

// NewMetrics registers the journal metric family on reg. Registration is
// get-or-create, so multiple writers may share one Metrics (their counts
// aggregate).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		appends: reg.Counter("caar_journal_appends_total",
			"Journal records durably appended."),
		appendBytes: reg.Counter("caar_journal_append_bytes_total",
			"Bytes of framed journal records written."),
		appendErrors: reg.Counter("caar_journal_append_errors_total",
			"Appends that failed to persist (write, flush or fsync error)."),
		fsyncSeconds: reg.Histogram("caar_journal_fsync_seconds",
			"Latency of journal fsync calls; its _count is the number of fsyncs.", fsyncBuckets),
		degraded: reg.Gauge("caar_journal_degraded",
			"1 once the journal writer has failed to persist an append (it then refuses every append until restart), else 0."),
		replayApplied: reg.Gauge("caar_journal_replay_applied",
			"Entries applied by the startup journal replay."),
		replaySkipped: reg.Gauge("caar_journal_replay_skipped",
			"Entries skipped by the startup journal replay (duplicates, unknown refs, invalid)."),
		replayDiscarded: reg.Gauge("caar_journal_replay_discarded_bytes",
			"Bytes cut from a torn or corrupt journal tail at recovery."),
	}
}

// ObserveReplay publishes one replay's outcome — call it after Recover or
// Replay at startup so the scrape reflects what recovery did.
func (m *Metrics) ObserveReplay(stats ReplayStats) {
	m.replayApplied.Set(float64(stats.Applied))
	m.replaySkipped.Set(float64(stats.Skipped))
	m.replayDiscarded.Set(float64(stats.DiscardedBytes))
}
