package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	caar "caar"
)

// hotDoc mirrors the /v1/hot wire shape for decoding in tests.
type hotDoc struct {
	WindowSeconds float64 `json:"window_seconds"`
	Dimensions    []struct {
		Dimension   string `json:"dimension"`
		Events      uint64 `json:"events_total"`
		TrackedKeys int    `json:"tracked_keys"`
		Keys        []struct {
			Key        string `json:"key"`
			Count      uint64 `json:"count"`
			ErrorBound uint64 `json:"error_bound"`
		} `json:"keys"`
	} `json:"dimensions"`
}

func getHot(t *testing.T, ts *httptest.Server, query string) (*http.Response, hotDoc) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/hot" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc hotDoc
	json.NewDecoder(resp.Body).Decode(&doc)
	return resp, doc
}

// TestHotEndpointReportsPlantedHotKey plants a hot consumer (30 recommends
// against 1) and a celebrity poster (6 followers against 1, through
// POST /v1/posts) and expects /v1/hot to name both and /v1/metrics to carry
// the caar_hot_* families.
func TestHotEndpointReportsPlantedHotKey(t *testing.T) {
	cfg := caar.DefaultConfig()
	cfg.DecayHalfLife = time.Hour
	eng, err := caar.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, WithMetrics(eng.Metrics())).Handler())
	t.Cleanup(ts.Close)

	fans := []string{"fan1", "fan2", "fan3", "fan4", "fan5", "fan6"}
	for _, u := range append([]string{"hotshot", "bob", "celeb"}, fans...) {
		resp, body := do(t, ts, http.MethodPost, "/v1/users", map[string]any{"handle": u})
		expectStatus(t, resp, http.StatusNoContent, body)
	}
	follow := func(follower, followee string) {
		t.Helper()
		resp, body := do(t, ts, http.MethodPost, "/v1/follow", map[string]any{"follower": follower, "followee": followee})
		expectStatus(t, resp, http.StatusNoContent, body)
	}
	for _, f := range fans {
		follow(f, "celeb")
	}
	follow("fan1", "bob")
	for _, author := range []string{"celeb", "bob", "celeb"} {
		resp, body := do(t, ts, http.MethodPost, "/v1/posts", map[string]any{"author": author, "text": "marathon shoes update"})
		expectStatus(t, resp, http.StatusNoContent, body)
	}
	respP, docP := getHot(t, ts, "?dim=posters")
	if respP.StatusCode != http.StatusOK || len(docP.Dimensions) != 1 || len(docP.Dimensions[0].Keys) == 0 ||
		docP.Dimensions[0].Keys[0].Key != "celeb" {
		t.Fatalf("posters dimension: status %d, %+v; want celeb ranked first by fan-out", respP.StatusCode, docP.Dimensions)
	}

	for i := 0; i < 30; i++ {
		resp, _ := do(t, ts, http.MethodGet, "/v1/recommendations?user=hotshot&k=3", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recommend: status %d", resp.StatusCode)
		}
	}
	resp, _ := do(t, ts, http.MethodGet, "/v1/recommendations?user=bob&k=3", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend: status %d", resp.StatusCode)
	}

	// All dimensions by default.
	resp2, doc := getHot(t, ts, "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/hot: status %d", resp2.StatusCode)
	}
	if len(doc.Dimensions) != 4 {
		t.Fatalf("dimensions = %+v", doc.Dimensions)
	}
	found := false
	for _, d := range doc.Dimensions {
		if d.Dimension != "users" {
			continue
		}
		found = true
		if len(d.Keys) == 0 || d.Keys[0].Key != "hotshot" || d.Keys[0].Count != 30 {
			t.Fatalf("users dimension = %+v", d.Keys)
		}
		if d.Events != 31 {
			t.Fatalf("events_total = %d, want 31", d.Events)
		}
	}
	if !found {
		t.Fatal("users dimension missing from default response")
	}

	// Single dimension, k=1.
	resp3, doc3 := getHot(t, ts, "?dim=users&k=1&window=1m")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/hot?dim=users: status %d", resp3.StatusCode)
	}
	if len(doc3.Dimensions) != 1 || len(doc3.Dimensions[0].Keys) != 1 ||
		doc3.Dimensions[0].Keys[0].Key != "hotshot" {
		t.Fatalf("filtered response = %+v", doc3.Dimensions)
	}
	if doc3.WindowSeconds <= 0 {
		t.Fatalf("window_seconds = %v", doc3.WindowSeconds)
	}

	respM, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(respM.Body)
	respM.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"caar_hot_events_total", "caar_hot_tracked_keys", "caar_hot_top_share_ratio"} {
		if !bytes.Contains(scrape, []byte(family)) {
			t.Errorf("%s missing from the /v1/metrics scrape", family)
		}
	}
}

func TestHotEndpointPartitionView(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := do(t, ts, http.MethodPost, "/v1/users", map[string]any{"handle": "alice"})
	expectStatus(t, resp, http.StatusNoContent, body)
	for i := 0; i < 5; i++ {
		do(t, ts, http.MethodGet, "/v1/recommendations?user=alice&k=3", nil)
	}
	resp2, err := http.Get(ts.URL + "/v1/hot?view=partition")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("partition view: status %d", resp2.StatusCode)
	}
	var rep caar.HotPartitionReport
	if err := json.NewDecoder(resp2.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Shards < 1 || len(rep.Dimensions) != 4 {
		t.Fatalf("partition report = %+v", rep)
	}
}

func TestHotEndpointValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"?dim=bogus", http.StatusBadRequest},
		{"?k=0", http.StatusBadRequest},
		{"?k=nope", http.StatusBadRequest},
		{"?window=yesterday", http.StatusBadRequest},
		{"?window=-5s", http.StatusBadRequest},
		{"?view=sideways", http.StatusBadRequest},
	} {
		resp, doc := getHot(t, ts, tc.query)
		if resp.StatusCode != tc.want {
			t.Errorf("GET /v1/hot%s: status %d, want %d (%+v)", tc.query, resp.StatusCode, tc.want, doc)
		}
	}
	resp, body := do(t, ts, http.MethodPost, "/v1/hot", map[string]any{})
	expectStatus(t, resp, http.StatusMethodNotAllowed, body)
}

// TestHotEndpointDisabled: an engine opened with DisableHotKeys must surface
// 404 from /v1/hot — the resource does not exist on this deployment.
func TestHotEndpointDisabled(t *testing.T) {
	cfg := caar.DefaultConfig()
	cfg.DecayHalfLife = time.Hour
	cfg.DisableHotKeys = true
	eng, err := caar.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()
	for _, query := range []string{"", "?dim=users", "?view=partition"} {
		resp, err := http.Get(ts.URL + "/v1/hot" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/hot%s on disabled engine: status %d, want 404", query, resp.StatusCode)
		}
	}
}
