package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	caar "caar"
)

// policyServer builds a server whose engine has one user facing one
// dominant campaign plus an independent ad.
func policyServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng.AddUser("alice")
	day := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	eng.AddCampaign("mega", 1000, day, day.Add(48*time.Hour))
	eng.AddAd(caar.Ad{ID: "mega-1", Text: "sneaker sale flash", Campaign: "mega", Bid: 0.9})
	eng.AddAd(caar.Ad{ID: "mega-2", Text: "sneaker sale encore", Campaign: "mega", Bid: 0.8})
	eng.AddAd(caar.Ad{ID: "indie", Text: "sneaker cleaning kit", Bid: 0.2})
	eng.Post("alice", "sneaker hunting", day.Add(10*time.Hour))
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestRecommendWithPolicyParams(t *testing.T) {
	ts := policyServer(t)
	at := time.Date(2026, 7, 6, 10, 1, 0, 0, time.UTC).Format(time.RFC3339)

	// Campaign diversity: at most 1 mega ad.
	resp, body := do(t, ts, "GET", "/v1/recommendations?user=alice&k=2&max_per_campaign=1&at="+at, nil)
	expectStatus(t, resp, http.StatusOK, body)
	recs := body["recommendations"].([]any)
	if len(recs) != 2 {
		t.Fatalf("recs = %v", recs)
	}
	mega := 0
	for _, r := range recs {
		id := r.(map[string]any)["AdID"].(string)
		if id == "mega-1" || id == "mega-2" {
			mega++
		}
	}
	if mega != 1 {
		t.Fatalf("campaign cap via HTTP failed: %v", recs)
	}

	// Frequency capping through the per-user impression endpoint.
	resp, body = do(t, ts, "POST", "/v1/impressions", map[string]any{
		"ad": "mega-1", "user": "alice", "at": at,
	})
	expectStatus(t, resp, http.StatusOK, body)
	if body["served"] != true {
		t.Fatalf("impression = %v", body)
	}
	resp, body = do(t, ts, "GET",
		"/v1/recommendations?user=alice&k=1&freq_cap=1&freq_window=1h&at="+
			time.Date(2026, 7, 6, 10, 2, 0, 0, time.UTC).Format(time.RFC3339), nil)
	expectStatus(t, resp, http.StatusOK, body)
	recs = body["recommendations"].([]any)
	if len(recs) != 1 || recs[0].(map[string]any)["AdID"] == "mega-1" {
		t.Fatalf("frequency cap via HTTP failed: %v", recs)
	}
}

func TestPolicyParamValidation(t *testing.T) {
	ts := policyServer(t)
	cases := []string{
		"/v1/recommendations?user=alice&freq_cap=0&freq_window=1h",
		"/v1/recommendations?user=alice&freq_cap=abc&freq_window=1h",
		"/v1/recommendations?user=alice&freq_cap=2", // cap without window
		"/v1/recommendations?user=alice&freq_window=1h",
		"/v1/recommendations?user=alice&freq_cap=2&freq_window=-1h",
		"/v1/recommendations?user=alice&freq_cap=2&freq_window=25h", // beyond the impression log's memory
		"/v1/recommendations?user=alice&max_per_campaign=0",
	}
	for _, path := range cases {
		resp, body := do(t, ts, "GET", path, nil)
		expectStatus(t, resp, http.StatusBadRequest, body)
	}
}
