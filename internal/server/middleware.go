package server

import (
	"encoding/json"
	"log"
	"net/http"
	"runtime/debug"
	"time"
)

// Resilience middleware for the serving path. The handler chain built by
// Handler() is, outermost first:
//
//	panic recovery → admission control (load shedding) → per-request
//	deadline → request-body size limit → mux
//
// Each layer is independently configurable via Options passed to New; the
// zero value of every knob disables that layer (except the body limit,
// which defaults to 1 MiB, and panic recovery, which is always on).

// DefaultMaxBodyBytes caps request bodies when Options.MaxBodyBytes is 0.
const DefaultMaxBodyBytes = 1 << 20

// retryAfter is the Retry-After hint, in seconds, on every shed (429) and
// recovering (503) response.
const retryAfter = "1"

// Option configures a Server.
type Option func(*Server)

// WithMaxBodyBytes caps the request body size; oversized bodies yield 413.
// n < 0 disables the cap.
func WithMaxBodyBytes(n int64) Option { return func(s *Server) { s.maxBody = n } }

// WithRequestTimeout bounds each request's handling time; requests that
// exceed it receive 503 and their context is canceled.
func WithRequestTimeout(d time.Duration) Option { return func(s *Server) { s.reqTimeout = d } }

// WithMaxInFlight admits at most n concurrent requests; beyond that the
// server sheds load with 429 + Retry-After instead of queueing without
// bound.
func WithMaxInFlight(n int) Option { return func(s *Server) { s.maxInFlight = n } }

// WithIngest routes posts and check-ins through the batched asynchronous
// ingest pipeline: the handler blocks until the write's group commit is
// durable, and a full ingest ring sheds with 429 + Retry-After. All other
// mutations stay synchronous.
func WithIngest(q IngestQueue) Option { return func(s *Server) { s.ingest = q } }

// WithLogger routes panic reports and shed notices to l instead of the
// process-wide default logger.
func WithLogger(l *log.Logger) Option { return func(s *Server) { s.logger = l } }

// Health is the server's self-reported state, served at /v1/healthz.
// /v1/healthz is a liveness probe: it answers 200 as long as the process
// serves, even while Status is "degraded" — restart decisions belong to the
// operator, not the load balancer. The readiness probe at /v1/readyz turns
// the same degradation into a 503 (see obs.go).
type Health struct {
	Status   string   `json:"status"` // "ok" or "degraded"
	InFlight int64    `json:"in_flight"`
	Shed     uint64   `json:"shed_total"`
	Panics   uint64   `json:"panics_total"`
	Problems []string `json:"problems,omitempty"`
}

// Health returns a point-in-time view of the middleware counters and any
// degraded-state reasons the engine reports.
func (s *Server) Health() Health {
	h := Health{
		Status:   "ok",
		InFlight: s.inFlight.Load(),
		Shed:     s.shed.Load(),
		Panics:   s.panics.Load(),
	}
	if probs := s.healthProblems(); len(probs) > 0 {
		h.Status = "degraded"
		h.Problems = probs
	}
	return h
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	ok(w, s.Health())
}

// logf writes to the configured logger, falling back to the default.
func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// withRecovery converts handler panics into 500 responses with a logged
// stack trace, so one bad request can never take the process down.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p) // deliberate connection abort; let net/http handle it
				}
				s.panics.Add(1)
				s.logf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				//caarlint:allow errstatus the recovery middleware is the one owner of 500
				httpError(w, http.StatusInternalServerError, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withRecoveryGate answers 503 + Retry-After on API paths while journal
// replay is still running, so a freshly restarted server can open its
// listener immediately (letting probes watch recovery progress on
// /v1/readyz) without serving or mutating state that is mid-replay.
// Operator paths stay reachable throughout. The gate evaporates to the
// inner handler once recovery completes; servers without a recovery
// progress tracker skip it entirely.
func (s *Server) withRecoveryGate(next http.Handler) http.Handler {
	if s.recovery == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.recovery.Done() && !s.operatorPath(r.URL.Path) {
			w.Header().Set("Retry-After", retryAfter)
			msg := "server recovering"
			if probs := s.recovery.Problems(); len(probs) > 0 {
				msg = "server recovering: " + probs[0]
			}
			httpError(w, http.StatusServiceUnavailable, msg)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withAdmission sheds load with 429 + Retry-After once maxInFlight requests
// are being served, keeping latency of admitted requests bounded under
// overload. Health and observability endpoints are exempt so operators can
// observe a saturated server.
func (s *Server) withAdmission(next http.Handler) http.Handler {
	if s.maxInFlight <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.operatorPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if s.inFlight.Add(1) > int64(s.maxInFlight) {
			s.inFlight.Add(-1)
			s.shed.Add(1)
			w.Header().Set("Retry-After", retryAfter)
			httpError(w, http.StatusTooManyRequests, "server overloaded, retry later")
			return
		}
		defer s.inFlight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// withDeadline bounds each request's total handling time using
// http.TimeoutHandler: the handler runs with a context that expires at the
// deadline and the client receives 503 if it is exceeded. TimeoutHandler
// writes its timeout body with no Content-Type (it would be sniffed as
// text/html), so the response writer is wrapped to default the header to
// JSON, keeping the 503 consistent with every other error response.
// Operator paths bypass the deadline: a /debug/pprof/profile collection
// runs for seconds by design, and cutting it off would break the tool
// reached for exactly when the server is slow.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.reqTimeout <= 0 {
		return next
	}
	body, _ := json.Marshal(errorBody{Error: "request deadline exceeded"})
	th := http.TimeoutHandler(next, s.reqTimeout, string(body))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.operatorPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		th.ServeHTTP(jsonByDefault{w}, r)
	})
}

// jsonByDefault sets Content-Type to application/json at WriteHeader time
// unless an inner handler already chose one. TimeoutHandler copies the
// inner handler's headers before WriteHeader on the success path, so this
// only kicks in for the timeout response it writes itself.
type jsonByDefault struct{ http.ResponseWriter }

func (w jsonByDefault) WriteHeader(code int) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	w.ResponseWriter.WriteHeader(code)
}

// withBodyLimit caps request body size; the JSON decoder surfaces the
// overflow as *http.MaxBytesError, mapped to 413 by decodeBody. A GET's
// http.NoBody has nothing to cap.
func (s *Server) withBodyLimit(next http.Handler) http.Handler {
	if s.maxBody < 0 {
		return next
	}
	limit := s.maxBody
	if limit == 0 {
		limit = DefaultMaxBodyBytes
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil && r.Body != http.NoBody {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		next.ServeHTTP(w, r)
	})
}
