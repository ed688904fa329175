package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	caar "caar"
	"caar/obs/hotkey"
)

// Hot-key telemetry endpoint: the HTTP surface over obs/hotkey.
//
//	GET /v1/hot                          — all dimensions, top 10 each
//	GET /v1/hot?dim=posters&k=5          — one dimension
//	GET /v1/hot?window=30s               — narrower sliding window
//	GET /v1/hot?view=partition           — engine HotPartitionReport (router signal)
//
// An operator path: it is read exactly when a shard is melting down under a
// hot key, so it must stay reachable on a saturated server.

// hotResponse is the /v1/hot wire shape for dimension queries.
type hotResponse struct {
	WindowSeconds float64            `json:"window_seconds"`
	Dimensions    []hotkey.DimReport `json:"dimensions"`
}

func (s *Server) handleHot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()

	window := time.Duration(0)
	if raw := q.Get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, "invalid window "+strconv.Quote(raw))
			return
		}
		window = d
	}

	if view := q.Get("view"); view != "" {
		if view != "partition" {
			httpError(w, http.StatusBadRequest, "unknown view "+strconv.Quote(view)+` (want "partition")`)
			return
		}
		rep, err := s.eng.HotPartitionReport(window)
		if err != nil {
			failHot(w, err)
			return
		}
		ok(w, rep)
		return
	}

	k := 10
	if raw := q.Get("k"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "invalid k "+strconv.Quote(raw))
			return
		}
		k = n
	}

	dims := hotkey.Dimensions()
	if raw := q.Get("dim"); raw != "" {
		if !hotkey.Valid(hotkey.Dimension(raw)) {
			httpError(w, http.StatusBadRequest, "unknown dimension "+strconv.Quote(raw))
			return
		}
		dims = []hotkey.Dimension{hotkey.Dimension(raw)}
	}

	resp := hotResponse{Dimensions: make([]hotkey.DimReport, 0, len(dims))}
	for _, dim := range dims {
		rep, err := s.eng.Hot(string(dim), k, window)
		if err != nil {
			failHot(w, err)
			return
		}
		resp.WindowSeconds = rep.WindowSeconds
		resp.Dimensions = append(resp.Dimensions, rep)
	}
	ok(w, resp)
}

// failHot maps hot-key query errors: a deployment with telemetry disabled
// is a 404 (the resource does not exist here), anything else follows the
// standard error→status table.
func failHot(w http.ResponseWriter, err error) {
	if errors.Is(err, caar.ErrHotKeysDisabled) {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	fail(w, err)
}

// captureHotkeysJSON renders the hot-key snapshot for SLO-trip capture
// bundles: every dimension's top 10 over the full retained window, same
// shape as GET /v1/hot — so a burn-rate trip names the offending key.
func (s *Server) captureHotkeysJSON() ([]byte, error) {
	resp := hotResponse{Dimensions: []hotkey.DimReport{}}
	for _, dim := range hotkey.Dimensions() {
		rep, err := s.eng.Hot(string(dim), 10, 0)
		if err != nil {
			if errors.Is(err, caar.ErrHotKeysDisabled) {
				return []byte(`{"dimensions":[]}` + "\n"), nil
			}
			return nil, err
		}
		resp.WindowSeconds = rep.WindowSeconds
		resp.Dimensions = append(resp.Dimensions, rep)
	}
	return json.Marshal(resp)
}
