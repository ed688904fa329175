// Package server exposes the recommender engine over HTTP/JSON — the
// end-to-end system binary (cmd/adserver) and the canonical benchmark's
// *_http workloads (bench/) drive this layer.
//
// The endpoints are the rows of routeTable; README.md's HTTP API table
// documents each with its method and body, and a test holds the two to the
// same paths.
//
// GET /v1/recommendations also accepts serving-policy parameters —
// freq_cap + freq_window (per-user frequency capping) and max_per_campaign
// (slate diversity) — plus explain=1, which inlines the request's flight
// record (per-stage spans, per-ad score decomposition, policy actions) in
// the response.
//
// Timestamps default to the server's current time when omitted.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	netpprof "net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	caar "caar"
	"caar/ingest"
	"caar/journal"
	"caar/obs"
	"caar/obs/capture"
	"caar/obs/hotkey"
	"caar/obs/slo"
	"caar/obs/trace"
)

// API is the engine surface the handlers call — all of it, so a value that
// satisfies API serves every endpoint and no handler probes for a capability.
// *caar.Engine implements it directly; *journal.Logged implements it with
// write-ahead logging. What a configuration turns off answers through the
// engine's own results: Tracer() is nil without Config.Tracer (/v1/traces
// 404s), Hot returns caar.ErrHotKeysDisabled under DisableHotKeys (/v1/hot
// 404s).
type API interface {
	AddUser(handle string) error
	Follow(follower, followee string) error
	Unfollow(follower, followee string) error
	CheckIn(user string, lat, lng float64, at time.Time) error
	Post(author, text string, at time.Time) error
	AddCampaign(name string, budget float64, start, end time.Time) error
	AddAd(ad caar.Ad) error
	RemoveAd(id string) error
	RecommendTraced(user string, k int, at time.Time, policy caar.ServingPolicy, treq caar.TraceRequest) ([]caar.Recommendation, *trace.Trace, error)
	ServeImpression(user, adID string, at time.Time) (bool, error)
	Trending(slot caar.Slot, k int) ([]caar.TrendingTerm, error)
	Stats() caar.Stats
	Invariants() caar.InvariantReport
	HealthProblems() []string
	Tracer() *trace.Store
	StageExemplars() map[string][]obs.BucketExemplar
	Hot(dim string, k int, window time.Duration) (hotkey.DimReport, error)
	HotPartitionReport(window time.Duration) (caar.HotPartitionReport, error)
}

// IngestQueue is the asynchronous write path for posts and check-ins
// (*ingest.Pipeline implements it). When attached via WithIngest, the posts
// and check-ins handlers submit through it — blocking until the write's
// group commit is durable — instead of calling the synchronous engine path;
// ingest.ErrQueueFull surfaces as 429 + Retry-After. Control-plane ops
// (users, follows, campaigns, ads) always stay on the synchronous path.
type IngestQueue interface {
	SubmitPost(author, text string, at time.Time) error
	SubmitCheckIn(user string, lat, lng float64, at time.Time) error
}

// Server wraps an engine with an HTTP API.
type Server struct {
	eng    API
	mux    *http.ServeMux
	routes []route
	now    func() time.Time

	// resilience knobs (see middleware.go).
	maxBody     int64
	reqTimeout  time.Duration
	maxInFlight int
	logger      *log.Logger

	inFlight atomic.Int64
	shed     atomic.Uint64
	panics   atomic.Uint64

	// observability (see obs.go). obsInFlight counts every request in the
	// chain, unlike inFlight which belongs to admission control (and stays 0
	// when admission is disabled).
	metrics     *obs.Registry
	sm          *serverMetrics
	accessLog   *slog.Logger
	start       time.Time
	obsInFlight atomic.Int64

	// recovery, when set, gates API traffic until journal replay finishes
	// and feeds replay progress into the readiness probe (see obs.go).
	recovery *journal.RecoveryProgress

	// ingest, when set, carries posts and check-ins through the batched
	// asynchronous write path (see IngestQueue).
	ingest IngestQueue

	// SLO tracking (see slo.go) and the anomaly flight recorder (see
	// capture.go). debugPprof mounts net/http/pprof on the main mux.
	sloCfg     slo.Config
	sloObjs    []slo.Objective
	sloTracker *slo.Tracker
	capture    *capture.Recorder
	debugPprof bool
}

// New creates a server over an engine (or any API implementation). With no
// options the server still recovers from handler panics and caps request
// bodies at DefaultMaxBodyBytes; deadlines and admission control are off.
func New(eng API, opts ...Option) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux(), now: time.Now, start: time.Now()}
	for _, opt := range opts {
		opt(s)
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.sm = newServerMetrics(s)
	s.routes = s.routeTable()
	for _, r := range s.routes {
		s.mux.HandleFunc(r.pattern, r.handler)
	}
	s.initSLO()
	if s.capture != nil {
		s.wireCaptureSources()
	}
	return s
}

// Handler returns the HTTP handler wrapped in the middleware chain,
// outermost first: observability (request ID, metrics, access log), panic
// recovery, recovery gate (503 while journal replay runs), admission
// control, per-request deadline, body limit.
func (s *Server) Handler() http.Handler {
	var h http.Handler = s.mux
	h = s.withBodyLimit(h)
	h = s.withDeadline(h)
	h = s.withAdmission(h)
	h = s.withRecoveryGate(h)
	h = s.withRecovery(h)
	h = s.withObservability(h)
	return h
}

// route is one row of the route table: a mux pattern (one ending in a slash
// serves the subtree below it, and labels it with the bare path), its
// handler, and whether it is an operator path. Operator paths — health and
// observability — skip the recovery gate, admission control and the request
// deadline: they are read exactly when the server is misbehaving, and a
// capture or a pprof collection legitimately runs for seconds.
type route struct {
	pattern  string
	handler  http.HandlerFunc
	operator bool
}

// routeTable is every path the server serves. The mux, the metrics'
// endpoint label and the operator exemptions all read it, and README.md's
// endpoint table lists the same paths (TestRouteTableMatchesREADME).
func (s *Server) routeTable() []route {
	rs := []route{
		{"/v1/users", s.post(s.handleAddUser), false},
		{"/v1/follow", s.handleFollow, false},
		{"/v1/checkins", s.post(s.handleCheckIn), false},
		{"/v1/posts", s.post(s.handlePost), false},
		{"/v1/campaigns", s.post(s.handleAddCampaign), false},
		{"/v1/ads", s.post(s.handleAddAd), false},
		{"/v1/ads/", s.handleRemoveAd, false},
		{"/v1/recommendations", s.handleRecommend, false},
		{"/v1/impressions", s.post(s.handleImpression), false},
		{"/v1/stats", s.handleStats, false},
		{"/v1/trending", s.handleTrending, false},
		{"/v1/invariants", s.handleInvariants, true},
		{"/v1/hot", s.handleHot, true},
		{"/v1/healthz", s.handleHealth, true},
		{"/v1/readyz", s.handleReady, true},
		{"/v1/metrics", s.metrics.Handler().ServeHTTP, true},
		{"/v1/traces", s.handleTraces, true},
		{"/v1/traces/", s.handleTraces, true},
		{"/v1/slo", s.handleSLO, true},
		{"/v1/capturez", s.handleCapturez, true},
		{"/v1/capturez/", s.handleCapturez, true},
	}
	if s.debugPprof {
		// The index serves the named profiles; these four it does not.
		rs = append(rs,
			route{"/debug/pprof/", netpprof.Index, true},
			route{"/debug/pprof/cmdline", netpprof.Cmdline, true},
			route{"/debug/pprof/profile", netpprof.Profile, true},
			route{"/debug/pprof/symbol", netpprof.Symbol, true},
			route{"/debug/pprof/trace", netpprof.Trace, true})
	}
	return rs
}

// routeOf returns the first route serving path — its pattern is path, or a
// subtree pattern path lies under — or nil.
func (s *Server) routeOf(path string) *route {
	for i := range s.routes {
		r := &s.routes[i]
		if path == r.pattern || strings.HasSuffix(r.pattern, "/") && strings.HasPrefix(path, r.pattern) {
			return r
		}
	}
	return nil
}

// operatorPath reports whether path is served by an operator route.
func (s *Server) operatorPath(path string) bool {
	r := s.routeOf(path)
	return r != nil && r.operator
}

// post wraps a handler with a method check.
func (s *Server) post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		h(w, r)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// fail maps engine errors to HTTP status codes: unknown references are 404,
// duplicates 409, and everything else — validation and configuration
// failures — 400. Nothing the engine returns maps to a 500; those are
// reserved for panics caught by the recovery middleware.
func fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, journal.ErrDurability):
		// Applied in memory but not persisted: an infrastructure failure,
		// not a client mistake.
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, caar.ErrUnknownUser), errors.Is(err, caar.ErrUnknownAd),
		errors.Is(err, caar.ErrUnknownCampaign):
		httpError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, caar.ErrDuplicate):
		httpError(w, http.StatusConflict, err.Error())
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

func ok(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	if body == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	json.NewEncoder(w).Encode(body)
}

func decode(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// decodeBody decodes the request body into `into`, writing the appropriate
// error response (413 for an oversized body, 400 otherwise) and returning
// false on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := decode(r, into); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

// at parses an optional RFC3339 timestamp, defaulting to now.
func (s *Server) at(raw string) (time.Time, error) {
	if raw == "" {
		return s.now(), nil
	}
	t, err := time.Parse(time.RFC3339, raw)
	if err != nil {
		return time.Time{}, fmt.Errorf("invalid timestamp %q: %w", raw, err)
	}
	return t, nil
}

func (s *Server) handleAddUser(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Handle string `json:"handle"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.eng.AddUser(req.Handle); err != nil {
		fail(w, err)
		return
	}
	ok(w, nil)
}

func (s *Server) handleFollow(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Follower string `json:"follower"`
		Followee string `json:"followee"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	var err error
	switch r.Method {
	case http.MethodPost:
		err = s.eng.Follow(req.Follower, req.Followee)
	case http.MethodDelete:
		err = s.eng.Unfollow(req.Follower, req.Followee)
	default:
		httpError(w, http.StatusMethodNotAllowed, "POST or DELETE required")
		return
	}
	if err != nil {
		fail(w, err)
		return
	}
	ok(w, nil)
}

func (s *Server) handleCheckIn(w http.ResponseWriter, r *http.Request) {
	var req struct {
		User string  `json:"user"`
		Lat  float64 `json:"lat"`
		Lng  float64 `json:"lng"`
		At   string  `json:"at"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	at, err := s.at(req.At)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.ingest != nil {
		s.finishWrite(w, s.ingest.SubmitCheckIn(req.User, req.Lat, req.Lng, at))
		return
	}
	if err := s.eng.CheckIn(req.User, req.Lat, req.Lng, at); err != nil {
		fail(w, err)
		return
	}
	ok(w, nil)
}

// finishWrite completes an ingest-path write: a full ring is backpressure
// (429 + Retry-After, same shape as admission control), every other error
// follows the engine error→status table.
func (s *Server) finishWrite(w http.ResponseWriter, err error) {
	if err == nil {
		ok(w, nil)
		return
	}
	if errors.Is(err, ingest.ErrQueueFull) {
		w.Header().Set("Retry-After", retryAfter)
		httpError(w, http.StatusTooManyRequests, "ingest queue full, retry later")
		return
	}
	fail(w, err)
}

func (s *Server) handlePost(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Author string `json:"author"`
		Text   string `json:"text"`
		At     string `json:"at"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	at, err := s.at(req.At)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.ingest != nil {
		s.finishWrite(w, s.ingest.SubmitPost(req.Author, req.Text, at))
		return
	}
	if err := s.eng.Post(req.Author, req.Text, at); err != nil {
		fail(w, err)
		return
	}
	ok(w, nil)
}

func (s *Server) handleAddCampaign(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name   string  `json:"name"`
		Budget float64 `json:"budget"`
		Start  string  `json:"start"`
		End    string  `json:"end"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	start, err := time.Parse(time.RFC3339, req.Start)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid start: "+err.Error())
		return
	}
	end, err := time.Parse(time.RFC3339, req.End)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid end: "+err.Error())
		return
	}
	if err := s.eng.AddCampaign(req.Name, req.Budget, start, end); err != nil {
		fail(w, err)
		return
	}
	ok(w, nil)
}

type adRequest struct {
	ID       string   `json:"id"`
	Text     string   `json:"text"`
	Campaign string   `json:"campaign,omitempty"`
	Bid      float64  `json:"bid"`
	Lat      *float64 `json:"lat,omitempty"`
	Lng      *float64 `json:"lng,omitempty"`
	RadiusKm *float64 `json:"radius_km,omitempty"`
	Slots    []string `json:"slots,omitempty"`
}

func (s *Server) handleAddAd(w http.ResponseWriter, r *http.Request) {
	var req adRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ad := caar.Ad{
		ID:       req.ID,
		Text:     req.Text,
		Campaign: req.Campaign,
		Bid:      req.Bid,
	}
	if req.Lat != nil || req.Lng != nil || req.RadiusKm != nil {
		if req.Lat == nil || req.Lng == nil || req.RadiusKm == nil {
			httpError(w, http.StatusBadRequest, "geo targeting needs lat, lng and radius_km together")
			return
		}
		ad.Target = &caar.Target{Lat: *req.Lat, Lng: *req.Lng, RadiusKm: *req.RadiusKm}
	}
	for _, sl := range req.Slots {
		ad.Slots = append(ad.Slots, caar.Slot(sl))
	}
	if err := s.eng.AddAd(ad); err != nil {
		fail(w, err)
		return
	}
	ok(w, nil)
}

func (s *Server) handleRemoveAd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		httpError(w, http.StatusMethodNotAllowed, "DELETE required")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/ads/")
	if id == "" {
		httpError(w, http.StatusBadRequest, "missing ad id")
		return
	}
	if err := s.eng.RemoveAd(id); err != nil {
		fail(w, err)
		return
	}
	ok(w, nil)
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	user := q.Get("user")
	k, err := kParam(q.Get("k"), 5)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	at, err := s.at(q.Get("at"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	policy, err := parsePolicy(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	rawExplain := q.Get("explain")
	explain := rawExplain == "1" || rawExplain == "true"

	// Every recommend goes through the traced path so the request ID flows
	// into the flight recorder; ?explain=1 inlines the captured trace (spans,
	// score decomposition, policy actions) in the response.
	recs, tr, err := s.eng.RecommendTraced(user, k, at, policy,
		caar.TraceRequest{ID: RequestID(r.Context()), Explain: explain})
	if err != nil {
		fail(w, err)
		return
	}
	resp := map[string]any{"user": user, "recommendations": recs}
	if explain && tr != nil {
		resp["explain"] = tr
	}
	ok(w, resp)
}

// kParam reads an optional k: def when absent, else what the engine accepts.
func kParam(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 1 || k > caar.MaxK {
		return 0, fmt.Errorf("k must be an integer in 1..%d", caar.MaxK)
	}
	return k, nil
}

// parsePolicy reads the optional serving-policy query parameters:
// freq_cap (int), freq_window (Go duration), max_per_campaign (int).
func parsePolicy(q map[string][]string) (caar.ServingPolicy, error) {
	get := func(key string) string {
		if vs := q[key]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	var p caar.ServingPolicy
	if raw := get("freq_cap"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return p, fmt.Errorf("freq_cap must be a positive integer")
		}
		p.FrequencyCap = n
	}
	if raw := get("freq_window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			return p, fmt.Errorf("freq_window must be a positive duration like 1h")
		}
		p.FrequencyWindow = d
	}
	if (p.FrequencyCap > 0) != (p.FrequencyWindow > 0) {
		return p, fmt.Errorf("freq_cap and freq_window must be given together")
	}
	if raw := get("max_per_campaign"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return p, fmt.Errorf("max_per_campaign must be a positive integer")
		}
		p.MaxPerCampaign = n
	}
	return p, nil
}

func (s *Server) handleImpression(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Ad   string `json:"ad"`
		User string `json:"user"` // optional: enables frequency capping
		At   string `json:"at"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	at, err := s.at(req.At)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	served, err := s.eng.ServeImpression(req.User, req.Ad, at)
	if err != nil {
		fail(w, err)
		return
	}
	ok(w, map[string]bool{"served": served})
}

func (s *Server) handleTrending(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	slot := caar.Slot(q.Get("slot"))
	if slot == "" {
		slot = caar.SlotOf(s.now())
	}
	k, err := kParam(q.Get("k"), 10)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	terms, err := s.eng.Trending(slot, k)
	if err != nil {
		fail(w, err)
		return
	}
	ok(w, map[string]any{"slot": string(slot), "terms": terms})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	ok(w, s.eng.Stats())
}

func (s *Server) handleInvariants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	ok(w, s.eng.Invariants())
}
