// Package fixture exercises the metricname analyzer against the stub obs
// registry: naming, kind-suffix, unit, label, and help rules.
package fixture

import "fixture/obs"

func violating(r *obs.Registry, dyn string) {
	r.Counter("caar_requests", "Requests served.")         // want `counter "caar_requests" must end in _total`
	r.Counter("requests_total", "Requests served.")        // want `lacks the "caar_" prefix`
	r.Counter("caar_Bad_Name_total", "Bad.")               // want `not snake_case`
	r.Counter(dyn, "Dynamic.")                             // want `must be a compile-time constant`
	r.Counter("caar_things_total", "")                     // want `registered without help text`
	r.Gauge("caar_queue_depth_total", "Depth.")            // want `gauge "caar_queue_depth_total" must not end in _total`
	r.GaugeFunc("caar_pauses_total", "P.", nil)            // want `gauge "caar_pauses_total" must not end in _total`
	r.Histogram("caar_latency", "Latency.", nil)           // want `must declare a base unit suffix`
	r.Histogram("caar_latency_sum", "Latency.", nil)       // want `exposition-reserved suffix "_sum"`
	r.Histogram("caar_size_count", "Size.", nil)           // want `exposition-reserved suffix "_count"`
	r.CounterVec("caar_hits_total", "Hits.", "le")         // want `label name "le" is reserved`
	r.CounterVec("caar_errs_total", "Errors.", dyn)        // want `label names must be compile-time constants`
	r.HistogramVec("caar_rt_seconds", "RT.", nil, "Route") // want `label name "Route" is not snake_case`
}

func conforming(r *obs.Registry) {
	r.Counter("caar_requests_total", "Requests served.")
	r.CounterFunc("caar_appends_total", "Journal appends.", nil)
	r.CounterFloatFunc("caar_gc_pause_seconds_total", "GC pause.", nil)
	r.Gauge("caar_queue_depth", "Queue depth.")
	r.GaugeVec("caar_shard_fill_ratio", "Shard fill.", "shard")
	r.Histogram("caar_latency_seconds", "Latency.", nil)
	r.HistogramVec("caar_payload_bytes", "Payload.", nil, "route", "method")
}

// The SLO watchdog and flight-recorder families must keep passing the same
// rules as every other metric.
func conformingSLOCapture(r *obs.Registry) {
	r.GaugeVec("caar_slo_burn_rate_ratio", "Burn rate.", "objective", "window")
	r.GaugeVec("caar_slo_budget_remaining_ratio", "Budget left.", "objective", "window")
	r.GaugeVec("caar_slo_breaching", "Breaching now.", "objective")
	r.GaugeVec("caar_slo_target_ratio", "Objective target.", "objective")
	r.CounterVec("caar_slo_trips_total", "Watchdog trips.", "objective")
	r.Counter("caar_slo_samples_total", "Sampling ticks.")
	r.CounterVec("caar_capture_bundles_total", "Bundles written.", "trigger")
	r.Counter("caar_capture_throttled_total", "Rate-limited captures.")
	r.Counter("caar_capture_errors_total", "Bundle artifact failures.")
	r.GaugeFunc("caar_capture_last_unix_seconds", "Last capture time.", nil)
}

func violatingSLOCapture(r *obs.Registry) {
	r.CounterVec("caar_slo_trips", "Trips.", "objective")        // want `counter "caar_slo_trips" must end in _total`
	r.GaugeVec("caar_slo_breaching_total", "B.", "objective")    // want `gauge "caar_slo_breaching_total" must not end in _total`
	r.CounterVec("caar_capture_bundles_total", "Bundles.", "le") // want `label name "le" is reserved`
}

// The hot-key telemetry families (obs/hotkey) must keep passing the same
// rules as every other metric.
func conformingHot(r *obs.Registry) {
	r.CounterVec("caar_hot_events_total", "Hot-key events recorded.", "dim")
	r.CounterVec("caar_hot_dropped_total", "Hot-key events dropped at a full queue.", "dim")
	r.GaugeVec("caar_hot_tracked_keys", "Distinct keys tracked.", "dim")
	r.GaugeVec("caar_hot_window_weight", "Event weight in the sliding window.", "dim")
	r.GaugeVec("caar_hot_top_share_ratio", "Top key's share of window weight.", "dim")
}

// The TopAds path counter (view / rerank) is a labeled family whose series are
// sampled at scrape time (CounterVec.Func); the registration is the checked
// call.
func conformingTopAdsPaths(r *obs.Registry) {
	r.CounterVec("caar_engine_topads_total", "Top-k queries by path.", "path")
}

func violatingTopAdsPaths(r *obs.Registry) {
	r.CounterVec("caar_engine_topads", "Queries.", "path")     // want `counter "caar_engine_topads" must end in _total`
	r.GaugeVec("caar_engine_topads_total", "Queries.", "path") // want `gauge "caar_engine_topads_total" must not end in _total`
}

func violatingHot(r *obs.Registry) {
	r.CounterVec("caar_hot_events", "Events.", "dim")         // want `counter "caar_hot_events" must end in _total`
	r.GaugeVec("caar_hot_tracked_keys_total", "Keys.", "dim") // want `gauge "caar_hot_tracked_keys_total" must not end in _total`
	r.CounterVec("hot_dropped_total", "Dropped.", "dim")      // want `lacks the "caar_" prefix`
	r.GaugeVec("caar_hot_TopShare_ratio", "Share.", "dim")    // want `not snake_case`
	r.CounterVec("caar_hot_events_total", "Events.", "le")    // want `label name "le" is reserved`
	r.GaugeVec("caar_hot_window_weight", "", "dim")           // want `registered without help text`
}
