package server

import (
	"net/http"
	"strconv"
	"strings"

	"caar/obs/trace"
)

// Trace endpoints: the operator's window into the request-scoped flight
// recorder.
//
//	GET /v1/traces?n=50     — newest-first summaries of captured traces,
//	                          plus the stage histograms' bucket exemplars
//	                          (trace IDs by latency bucket)
//	GET /v1/traces/{id}     — one full trace: spans with candidate counts,
//	                          score decomposition, policy actions
//
// Both return 404 when the deployment has no trace store. They are
// operator paths: exempt from admission control, because the flight
// recorder is read exactly when the server is misbehaving.

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	store := s.eng.Tracer()
	if store == nil {
		httpError(w, http.StatusNotFound, "request tracing disabled in this deployment")
		return
	}

	if id := strings.TrimPrefix(r.URL.Path, "/v1/traces/"); id != r.URL.Path && id != "" {
		tr := store.Get(id)
		if tr == nil {
			httpError(w, http.StatusNotFound, "no captured trace with id "+strconv.Quote(id))
			return
		}
		ok(w, tr)
		return
	}

	n := 50
	if raw := r.URL.Query().Get("n"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 {
			httpError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = parsed
	}
	traces := store.List(n)
	sums := make([]trace.Summary, 0, len(traces))
	for _, t := range traces {
		sums = append(sums, t.Summary())
	}
	body := map[string]any{"traces": sums}
	if ex := s.eng.StageExemplars(); len(ex) > 0 {
		body["exemplars"] = ex
	}
	ok(w, body)
}
