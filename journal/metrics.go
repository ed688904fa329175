package journal

import (
	"caar/obs"
)

// fsyncBuckets covers the disk-flush latency range: fast NVMe fsyncs land
// around tens of microseconds, a struggling disk in the seconds.
var fsyncBuckets = obs.ExpBuckets(10e-6, 2, 20) // 10 µs .. ~5.2 s

// Metrics bundles the journal's observability collectors. Register one on
// the process registry with NewMetrics and attach it to a Writer via
// SetMetrics; a Writer without metrics records nothing. Each family has a
// run-book reader in README.md: the append errors and the degraded flag
// the journal-degraded run-book, the fsync latency the ingest run-book.
// What recovery did is the startup log line and /v1/readyz's replay
// summary, not a gauge.
type Metrics struct {
	appendErrors *obs.Counter
	fsyncSeconds *obs.Histogram
	degraded     *obs.Gauge
}

// NewMetrics registers the journal metric family on reg. Registration is
// get-or-create, so multiple writers may share one Metrics (their counts
// aggregate).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		appendErrors: reg.Counter("caar_journal_append_errors_total",
			"Appends that failed to persist (write, flush or fsync error)."),
		fsyncSeconds: reg.Histogram("caar_journal_fsync_seconds",
			"Latency of journal fsync calls; its _count is the number of fsyncs.", fsyncBuckets),
		degraded: reg.Gauge("caar_journal_degraded",
			"1 once the journal writer has failed to persist an append (it then refuses every append until restart), else 0."),
	}
}
