package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"caar/journal"
	"caar/obs"
)

// Observability middleware and operator endpoints. The observability layer
// is the outermost middleware so its single clock capture covers the entire
// chain (recovery, admission, deadline, body limit, handler) and the same
// reading feeds the latency histogram, the access log and the slow-request
// log — one request, one duration, three consumers.

// WithMetrics registers the server's collectors on reg instead of a private
// registry. Pass the same registry to caar.Config.Metrics and
// journal.NewMetrics so one /v1/metrics scrape covers every layer.
func WithMetrics(reg *obs.Registry) Option { return func(s *Server) { s.metrics = reg } }

// WithAccessLog emits one structured log line per request (and a warn-level
// line for requests at least slowRequest slow) through l. Every line carries
// the request_id echoed in the X-Request-Id response header. nil (the
// default) disables access logging; metrics and request IDs stay on.
func WithAccessLog(l *slog.Logger) Option { return func(s *Server) { s.accessLog = l } }

// slowRequest is the access log's threshold for a warn-level slow_request line.
const slowRequest = 500 * time.Millisecond

// WithRecoveryProgress attaches a journal-replay progress tracker: while
// recovery runs, API paths are gated with 503 + Retry-After and /v1/readyz
// reports the replay position ("N records applied, M/T bytes") instead of a
// bare not-ready; once done, the ready response embeds the final replay
// summary. This lets adserver start listening before replay finishes, so
// supervisors can distinguish "recovering" from "wedged".
func WithRecoveryProgress(p *journal.RecoveryProgress) Option {
	return func(s *Server) { s.recovery = p }
}

// serverMetrics bundles the HTTP-layer collectors.
type serverMetrics struct {
	requests *obs.CounterVec   // {endpoint, class}
	latency  *obs.HistogramVec // {endpoint}
	timeouts *obs.Counter
}

// newServerMetrics registers the HTTP metric family on the server's
// registry, with scrape-time functions over the middleware counters.
func newServerMetrics(s *Server) *serverMetrics {
	reg := s.metrics
	m := &serverMetrics{
		requests: reg.CounterVec("caar_http_requests_total",
			"HTTP requests by endpoint and status class.", "endpoint", "class"),
		latency: reg.HistogramVec("caar_http_request_seconds",
			"End-to-end request latency through the full middleware chain.",
			obs.LatencyBuckets, "endpoint"),
		timeouts: reg.Counter("caar_http_timeouts_total",
			"Requests cut off by the per-request deadline."),
	}
	reg.GaugeFunc("caar_http_in_flight", "Requests currently being served.", func() float64 {
		return float64(s.obsInFlight.Load())
	})
	reg.CounterFunc("caar_http_shed_total", "Requests shed by admission control (429).", func() uint64 {
		return s.shed.Load()
	})
	reg.CounterFunc("caar_http_panics_total", "Handler panics converted to 500s.", func() uint64 {
		return s.panics.Load()
	})
	reg.GaugeFunc("caar_process_uptime_seconds", "Seconds since the server was constructed.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	reg.GaugeFunc("caar_ready", "1 while the readiness probe passes, 0 while degraded.", func() float64 {
		if len(s.healthProblems()) > 0 {
			return 0
		}
		return 1
	})
	// Go runtime health (goroutines, heap, GC pause, GOMAXPROCS) rides on
	// the same registry; registration is idempotent across servers. The
	// build-info gauge lets dashboards join any series against the binary
	// that produced it.
	obs.RegisterRuntime(reg)
	obs.RegisterBuildInfo(reg)
	return m
}

// reqIDPrefix makes request IDs unique across process restarts; the atomic
// sequence makes them unique within one.
var reqIDPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var reqIDSeq atomic.Uint64

func newRequestID() string {
	return reqIDPrefix + "-" + strconv.FormatUint(reqIDSeq.Add(1), 10)
}

// maxRequestIDLen caps adopted client request IDs; anything longer is
// truncated before sanitizing.
const maxRequestIDLen = 128

// sanitizeRequestID hardens a client-supplied X-Request-Id before it is
// echoed into response headers, log lines and trace IDs: the length is
// capped and every byte outside graphic ASCII (controls, spaces, newlines,
// escape sequences, non-ASCII) is stripped — a hostile ID must not be able
// to inject log lines or smuggle header bytes. Returns "" when nothing
// printable survives, which makes the middleware mint a fresh ID.
func sanitizeRequestID(raw string) string {
	if len(raw) > maxRequestIDLen {
		raw = raw[:maxRequestIDLen]
	}
	clean := true
	for i := 0; i < len(raw); i++ {
		if raw[i] <= 0x20 || raw[i] >= 0x7f {
			clean = false
			break
		}
	}
	if clean {
		return raw
	}
	b := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		if c := raw[i]; c > 0x20 && c < 0x7f {
			b = append(b, c)
		}
	}
	return string(b)
}

type ctxKey int

const requestIDKey ctxKey = iota

// RequestID returns the request's ID (generated by the observability
// middleware or supplied by the client in X-Request-Id), or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// statusRecorder captures the response status and body size for metrics and
// the access log.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *statusRecorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// Unwrap lets http.ResponseController reach Flush/SetWriteDeadline on the
// underlying writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// endpointLabel is path's value of the per-endpoint series' label: its
// route's pattern without a trailing slash. Anything the route table does not
// serve collapses into "other", so a path-scanning client cannot explode the
// metric cardinality.
func (s *Server) endpointLabel(path string) string {
	if r := s.routeOf(path); r != nil {
		return strings.TrimSuffix(r.pattern, "/")
	}
	return "other"
}

func statusClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// withObservability is the outermost middleware: one monotonic clock
// capture at entry feeds the per-endpoint latency histogram, the access log
// and the slow-request log; the request ID is minted (or adopted from the
// client), echoed in X-Request-Id and attached to the request context and
// every log line.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.obsInFlight.Add(1)
		defer s.obsInFlight.Add(-1)
		reqID := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		if reqID == "" {
			reqID = newRequestID()
		}
		w.Header().Set("X-Request-Id", reqID)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, reqID))

		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)

		ep := s.endpointLabel(r.URL.Path)
		s.sm.requests.With(ep, statusClass(rec.status())).Inc()
		s.sm.latency.With(ep).ObserveDuration(elapsed)
		// The deadline middleware answers 503 after reqTimeout; a 503 that
		// took at least that long is a deadline cut, not a handler error.
		if s.reqTimeout > 0 && rec.status() == http.StatusServiceUnavailable && elapsed >= s.reqTimeout {
			s.sm.timeouts.Inc()
		}

		if s.accessLog != nil {
			lg := s.accessLog.With(slog.String("request_id", reqID))
			lg.LogAttrs(r.Context(), slog.LevelInfo, "http_request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status()),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("duration", elapsed),
			)
			if elapsed >= slowRequest {
				lg.LogAttrs(r.Context(), slog.LevelWarn, "slow_request",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Duration("duration", elapsed),
					slog.Duration("threshold", slowRequest),
				)
			}
		}
	})
}

// healthProblems collects degraded-state reasons: journal-replay progress
// while recovery is running, then whatever the engine reports (*caar.Engine
// snapshot-write failures, *journal.Logged adds journal durability
// failures). /v1/readyz turns a non-empty list into a 503 so load balancers
// drain the replica while /v1/healthz keeps answering 200.
func (s *Server) healthProblems() []string {
	var probs []string
	if s.recovery != nil {
		probs = append(probs, s.recovery.Problems()...)
	}
	return append(probs, s.eng.HealthProblems()...)
}

// handleReady is the readiness probe: 200 while the deployment can do its
// job, 503 with machine-readable reasons once a layer reports degradation
// (journal durability failure, snapshot write failure). Liveness stays on
// /v1/healthz, which keeps answering 200 as long as the process serves.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	problems := s.healthProblems()
	if len(problems) == 0 {
		body := map[string]any{"status": "ready"}
		if s.recovery != nil {
			if sum, done := s.recovery.Summary(); done {
				body["replay"] = sum
			}
		}
		ok(w, body)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	writeJSON(w, map[string]any{"status": "degraded", "reasons": problems})
}

// writeJSON mirrors ok()'s encoding for responses that set their own status
// code first.
func writeJSON(w http.ResponseWriter, body any) {
	_ = json.NewEncoder(w).Encode(body)
}
