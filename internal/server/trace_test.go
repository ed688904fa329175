package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	caar "caar"
	"caar/obs/trace"
)

// newTracedTestServer builds a server whose engine captures every request
// in a trace store, seeded with enough state for recommends to return ads.
func newTracedTestServer(t *testing.T) (*httptest.Server, *caar.Engine) {
	t.Helper()
	cfg := caar.DefaultConfig()
	cfg.DecayHalfLife = time.Hour
	cfg.Tracer = trace.NewStore(trace.Config{Capacity: 32, SampleRate: 1})
	eng, err := caar.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	for _, u := range []string{"alice", "bob"} {
		if err := eng.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddAd(caar.Ad{ID: "shoes", Text: "marathon running shoes", Bid: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Post("bob", "marathon running today", at); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

// TestExplainInlinesDecomposition: ?explain=1 attaches the full trace —
// spans, score decomposition summing to the ranked score — to the
// recommendation response, under the request's own X-Request-Id.
func TestExplainInlinesDecomposition(t *testing.T) {
	ts, _ := newTracedTestServer(t)
	at := time.Date(2026, 7, 6, 9, 1, 0, 0, time.UTC).Format(time.RFC3339)

	req, _ := http.NewRequest(http.MethodGet,
		ts.URL+"/v1/recommendations?user=alice&k=3&explain=1&at="+at, nil)
	req.Header.Set("X-Request-Id", "explain-me-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Recommendations []caar.Recommendation `json:"recommendations"`
		Explain         *trace.Trace          `json:"explain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Recommendations) == 0 {
		t.Fatal("no recommendations")
	}
	tr := body.Explain
	if tr == nil {
		t.Fatal("explain=1 returned no trace")
	}
	if tr.ID != "explain-me-1" {
		t.Fatalf("trace ID %q, want the request ID", tr.ID)
	}
	if len(tr.Spans) != 6 {
		t.Fatalf("trace has %d spans: %+v", len(tr.Spans), tr.Spans)
	}
	if len(tr.Ads) != len(body.Recommendations) {
		t.Fatalf("%d traced ads for %d recommendations", len(tr.Ads), len(body.Recommendations))
	}
	for _, ad := range tr.Ads {
		if sum := ad.Text + ad.Geo + ad.Bid; sum < ad.Score-1e-9 || sum > ad.Score+1e-9 {
			t.Errorf("ad %s decomposition %g+%g+%g != score %g", ad.AdID, ad.Text, ad.Geo, ad.Bid, ad.Score)
		}
	}
}

// TestTraceEndpoints: /v1/traces lists captured traces newest-first and
// /v1/traces/{id} retrieves one by its request ID; unknown IDs 404.
func TestTraceEndpoints(t *testing.T) {
	ts, _ := newTracedTestServer(t)
	at := time.Date(2026, 7, 6, 9, 1, 0, 0, time.UTC).Format(time.RFC3339)

	for _, id := range []string{"trace-a", "trace-b"} {
		req, _ := http.NewRequest(http.MethodGet,
			ts.URL+"/v1/recommendations?user=alice&k=2&at="+at, nil)
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recommend %s: status %d", id, resp.StatusCode)
		}
	}

	resp, body := do(t, ts, "GET", "/v1/traces", nil)
	expectStatus(t, resp, http.StatusOK, body)
	sums, okCast := body["traces"].([]any)
	if !okCast || len(sums) != 2 {
		t.Fatalf("traces = %v", body["traces"])
	}
	newest := sums[0].(map[string]any)
	if newest["id"] != "trace-b" {
		t.Fatalf("newest trace = %v, want trace-b first", newest)
	}
	if _, hasEx := body["exemplars"]; !hasEx {
		t.Fatalf("trace listing carries no exemplars: %v", body)
	}

	resp, body = do(t, ts, "GET", "/v1/traces/trace-a", nil)
	expectStatus(t, resp, http.StatusOK, body)
	if body["id"] != "trace-a" {
		t.Fatalf("trace body = %v", body)
	}
	if spans, _ := body["spans"].([]any); len(spans) != 6 {
		t.Fatalf("spans = %v", body["spans"])
	}

	resp, body = do(t, ts, "GET", "/v1/traces/no-such-trace", nil)
	expectStatus(t, resp, http.StatusNotFound, body)

	resp, body = do(t, ts, "GET", "/v1/traces?n=bogus", nil)
	expectStatus(t, resp, http.StatusBadRequest, body)
}

// TestTraceEndpointsDisabled: without a trace store the endpoints 404 with
// a message saying tracing is off, so operators don't chase ghosts — while
// ?explain=1 still answers, with a trace built for that one request and
// retained nowhere.
func TestTraceEndpointsDisabled(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := do(t, ts, "POST", "/v1/users", map[string]any{"handle": "alice"})
	expectStatus(t, resp, http.StatusNoContent, body)

	resp, body = do(t, ts, "GET", "/v1/recommendations?user=alice&explain=1", nil)
	expectStatus(t, resp, http.StatusOK, body)
	ex, _ := body["explain"].(map[string]any)
	if ex == nil || ex["capture_reason"] != trace.ReasonExplain {
		t.Fatalf("explain=1 without a tracer: explain = %v", body["explain"])
	}

	resp, body = do(t, ts, "GET", "/v1/traces", nil)
	expectStatus(t, resp, http.StatusNotFound, body)
	resp, body = do(t, ts, "GET", "/v1/traces/"+ex["id"].(string), nil)
	expectStatus(t, resp, http.StatusNotFound, body)
}
