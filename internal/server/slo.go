package server

import (
	"net/http"

	"caar/obs"
	"caar/obs/slo"
)

// SLO endpoint: the server self-reports whether it is keeping its latency
// and availability promises, computed from the same per-endpoint histograms
// and counters /v1/metrics exposes — the tracker samples them on a cadence,
// so enabling SLOs adds nothing to the request path.
//
//	GET /v1/slo            — objectives with fast/slow-window burn rates
//	GET /v1/slo?refresh=1  — take a fresh sample first (adctl uses this so
//	                         the report reflects traffic sent moments ago)
//
// /v1/slo is an operator path: reachable while the server sheds load,
// because burn rates are read exactly when the server is misbehaving.

// WithSLO declares the server's objectives and enables burn-rate tracking.
// The tracker registers its caar_slo_ metrics on the server's registry and
// binds each objective to the serving-layer collectors for its endpoint;
// cfg.OnTrip (adserver logs the trip) fires when an objective's fast AND
// slow windows burn above cfg.BurnThreshold, at most once per cooldown.
//
// The caller owns the sampling cadence: either run SLO().Run in a goroutine
// (adserver does) or drive SLO().Sample directly (tests, harnesses).
func WithSLO(cfg slo.Config, objectives ...slo.Objective) Option {
	return func(s *Server) {
		s.sloCfg = cfg
		s.sloObjs = objectives
	}
}

// SLO returns the burn-rate tracker, or nil when WithSLO was not used.
func (s *Server) SLO() *slo.Tracker { return s.sloTracker }

// initSLO builds the tracker once the serving metrics exist (New calls it
// after newServerMetrics). Objective misconfiguration panics: SLO specs are
// startup configuration, validated by ParseObjectives long before this, and
// a server silently dropping an objective would be worse than failing loud.
func (s *Server) initSLO() {
	if len(s.sloObjs) == 0 {
		return
	}
	t := slo.NewTracker(s.sloCfg, s.metrics)
	for _, obj := range s.sloObjs {
		ep := s.seriesOf(obj.Endpoint).label
		var (
			src slo.Source
			eff float64
		)
		switch obj.Kind {
		case slo.KindLatency:
			src, eff = slo.LatencySource(s.sm.latency.With(ep), obj.Threshold)
		case slo.KindAvailability:
			classes := []*obs.Counter{
				s.sm.requests.With(ep, "2xx"),
				s.sm.requests.With(ep, "3xx"),
				s.sm.requests.With(ep, "4xx"),
				s.sm.requests.With(ep, "5xx"),
			}
			errs := classes[3]
			src = slo.AvailabilitySource(func() uint64 {
				var total uint64
				for _, c := range classes {
					total += c.Value()
				}
				return total
			}, errs.Value)
		}
		if err := t.Add(obj, src, eff); err != nil {
			panic("server: " + err.Error())
		}
	}
	s.sloTracker = t
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.sloTracker == nil {
		httpError(w, http.StatusNotFound, "SLO tracking disabled in this deployment")
		return
	}
	if raw := query(r.URL.RawQuery).get("refresh"); raw == "1" || raw == "true" {
		s.sloTracker.Sample(s.now())
	}
	ok(w, s.sloTracker.Status())
}
