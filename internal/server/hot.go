package server

import (
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
//
// An operator path: it is read exactly when a shard is melting down under a
// hot key, so it must stay reachable on a saturated server.

// hotResponse is the /v1/hot wire shape.
type hotResponse struct {
	WindowSeconds float64            `json:"window_seconds"`
	Dimensions    []hotkey.DimReport `json:"dimensions"`
}

func (s *Server) handleHot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := query(r.URL.RawQuery)

	window := time.Duration(0)
	if raw := q.get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, "invalid window "+strconv.Quote(raw))
			return
		}
		window = d
	}
	k, err := kParam(q.get("k"), 10)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	dims := hotkey.Dimensions()
	if raw := q.get("dim"); raw != "" {
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
