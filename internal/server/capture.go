package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"caar/obs/capture"
	"caar/obs/trace"
)

// Capture endpoints: the HTTP surface over the flight recorder (obs/capture).
//
//	GET  /v1/capturez               — retained bundles, newest first
//	POST /v1/capturez               — force a capture now ("manual" trigger)
//	GET  /v1/capturez/{name}        — one bundle's meta.json
//	GET  /v1/capturez/{name}/{file} — one artifact (cpu.pprof, metrics.prom, …)
//
// All are operator paths — exempt from admission control and the request
// deadline, because a capture takes CPUProfileDuration (seconds) by design
// and is requested exactly when the server is misbehaving.
//
// WithDebugPprof mounts net/http/pprof under /debug/pprof/ on the same mux
// behind the same gate: one listener, one flag surface, instead of the
// former side mux on a second goroutine.

// WithCapture attaches a flight recorder and enables the /v1/capturez
// endpoints.
func WithCapture(rec *capture.Recorder) Option {
	return func(s *Server) { s.capture = rec }
}

// WithDebugPprof mounts the net/http/pprof handlers at /debug/pprof/ on the
// server's mux. Opt-in: profiling handlers can run seconds-long collections,
// so deployments enable them deliberately (adserver's -pprof flag).
func WithDebugPprof() Option {
	return func(s *Server) { s.debugPprof = true }
}

// captureTraceJSON adapts the deployment's trace store for bundle inclusion:
// the newest trace summaries, same shape as GET /v1/traces.
func (s *Server) captureTraceJSON() ([]byte, error) {
	store := s.eng.Tracer()
	if store == nil {
		return []byte(`{"traces":[]}` + "\n"), nil
	}
	traces := store.List(50)
	sums := make([]trace.Summary, 0, len(traces))
	for _, t := range traces {
		sums = append(sums, t.Summary())
	}
	return json.Marshal(map[string]any{"traces": sums})
}

// wireCaptureSources points the recorder's trace-tail, health, and hot-key
// sources at this server (New calls it when WithCapture was used), so bundles
// carry the same views an operator would have fetched by hand.
func (s *Server) wireCaptureSources() {
	health := func() ([]byte, error) { return json.Marshal(s.Health()) }
	s.capture.SetSources(s.captureTraceJSON, health, s.captureHotkeysJSON)
}

func (s *Server) handleCapturez(w http.ResponseWriter, r *http.Request) {
	if s.capture == nil {
		httpError(w, http.StatusNotFound, "capture disabled in this deployment (start with -capture-dir)")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/capturez")
	rest = strings.TrimPrefix(rest, "/")

	switch {
	case rest == "":
		switch r.Method {
		case http.MethodGet:
			list, err := s.capture.List()
			if err != nil {
				httpError(w, http.StatusServiceUnavailable, err.Error())
				return
			}
			ok(w, map[string]any{"bundles": list, "dir": s.capture.Dir()})
		case http.MethodPost:
			name, err := s.capture.Capture("manual", "operator request via /v1/capturez", true)
			if err != nil {
				if errors.Is(err, capture.ErrThrottled) {
					httpError(w, http.StatusConflict, err.Error())
					return
				}
				httpError(w, http.StatusServiceUnavailable, err.Error())
				return
			}
			ok(w, map[string]string{"bundle": name})
		default:
			httpError(w, http.StatusMethodNotAllowed, "GET or POST required")
		}
	default:
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET required")
			return
		}
		name, file, hasFile := strings.Cut(rest, "/")
		if !hasFile {
			meta, err := s.capture.Meta(name)
			if err != nil {
				httpError(w, http.StatusNotFound, "no capture bundle "+name)
				return
			}
			ok(w, meta)
			return
		}
		b, err := s.capture.ReadFile(name, file)
		if err != nil {
			httpError(w, http.StatusNotFound, "no file "+file+" in bundle "+name)
			return
		}
		w.Header().Set("Content-Type", contentTypeFor(file))
		w.Write(b)
	}
}

// contentTypeFor picks a Content-Type for a bundle artifact.
func contentTypeFor(file string) string {
	switch {
	case strings.HasSuffix(file, ".json"):
		return "application/json"
	case strings.HasSuffix(file, ".pprof"):
		return "application/octet-stream"
	default:
		return "text/plain; charset=utf-8"
	}
}
