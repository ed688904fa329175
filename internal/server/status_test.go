package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	caar "caar"
)

// TestErrorStatusMapping audits the error→status contract across every
// endpoint: unknown references are 404, duplicates 409, validation
// failures 400 — never a generic 500.
func TestErrorStatusMapping(t *testing.T) {
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	if err := eng.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddCampaign("spring", 100, day, day.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddAd(caar.Ad{ID: "shoes", Text: "marathon running shoes", Campaign: "spring", Bid: 0.4}); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		// users
		{"add user ok", "POST", "/v1/users", `{"handle":"bob"}`, 204},
		{"add user duplicate", "POST", "/v1/users", `{"handle":"alice"}`, 409},
		{"add user empty handle", "POST", "/v1/users", `{"handle":""}`, 400},
		{"add user bad json", "POST", "/v1/users", `{"handle"`, 400},
		{"add user wrong method", "GET", "/v1/users", "", 405},

		// follow
		{"follow ok", "POST", "/v1/follow", `{"follower":"alice","followee":"bob"}`, 204},
		{"follow unknown follower", "POST", "/v1/follow", `{"follower":"ghost","followee":"alice"}`, 404},
		{"follow unknown followee", "POST", "/v1/follow", `{"follower":"alice","followee":"ghost"}`, 404},
		{"unfollow unknown user", "DELETE", "/v1/follow", `{"follower":"ghost","followee":"alice"}`, 404},
		{"follow wrong method", "PUT", "/v1/follow", `{}`, 405},

		// checkins / posts
		{"checkin unknown user", "POST", "/v1/checkins", `{"user":"ghost","lat":1,"lng":1}`, 404},
		{"checkin bad timestamp", "POST", "/v1/checkins", `{"user":"alice","lat":1,"lng":1,"at":"yesterday"}`, 400},
		{"post unknown author", "POST", "/v1/posts", `{"author":"ghost","text":"hi"}`, 404},
		{"post ok", "POST", "/v1/posts", `{"author":"alice","text":"morning espresso run"}`, 204},

		// campaigns
		{"campaign duplicate", "POST", "/v1/campaigns",
			`{"name":"spring","budget":5,"start":"2026-07-06T00:00:00Z","end":"2026-07-07T00:00:00Z"}`, 409},
		{"campaign bad budget", "POST", "/v1/campaigns",
			`{"name":"x","budget":-1,"start":"2026-07-06T00:00:00Z","end":"2026-07-07T00:00:00Z"}`, 400},
		{"campaign bad start", "POST", "/v1/campaigns", `{"name":"x","budget":5,"start":"nope","end":"2026-07-07T00:00:00Z"}`, 400},

		// ads
		{"ad unknown campaign", "POST", "/v1/ads", `{"id":"new","text":"fresh espresso deals","campaign":"ghost","bid":0.2}`, 404},
		{"ad duplicate", "POST", "/v1/ads", `{"id":"shoes","text":"more shoes","bid":0.2}`, 409},
		{"ad bad bid", "POST", "/v1/ads", `{"id":"badbid","text":"espresso deals","bid":7}`, 400},
		{"ad empty id", "POST", "/v1/ads", `{"id":"","text":"espresso deals","bid":0.2}`, 400},
		{"ad partial geo", "POST", "/v1/ads", `{"id":"geo","text":"espresso deals","bid":0.2,"lat":1.0}`, 400},
		{"remove unknown ad", "DELETE", "/v1/ads/ghost", "", 404},
		{"remove ad missing id", "DELETE", "/v1/ads/", "", 400},

		// recommendations
		{"recommend unknown user", "GET", "/v1/recommendations?user=ghost", "", 404},
		{"recommend bad k", "GET", "/v1/recommendations?user=alice&k=zero", "", 400},
		{"recommend zero k", "GET", "/v1/recommendations?user=alice&k=0", "", 400},
		{"recommend k above the maximum", "GET", "/v1/recommendations?user=alice&k=2000000000", "", 400},
		{"recommend k overflowing int", "GET", "/v1/recommendations?user=alice&k=99999999999999999999", "", 400},
		{"recommend k at the maximum", "GET", "/v1/recommendations?user=alice&k=1000", "", 200},
		{"recommend bad policy", "GET", "/v1/recommendations?user=alice&freq_cap=2", "", 400},
		{"recommend ok", "GET", "/v1/recommendations?user=alice&k=3", "", 200},

		// impressions
		{"impression unknown ad", "POST", "/v1/impressions", `{"ad":"ghost"}`, 404},
		{"impression unknown user", "POST", "/v1/impressions", `{"ad":"shoes","user":"ghost"}`, 404},

		// trending / stats / health
		{"trending bad slot", "GET", "/v1/trending?slot=brunch", "", 400},
		{"trending k above the maximum", "GET", "/v1/trending?slot=morning&k=2000000000", "", 400},
		{"trending ok", "GET", "/v1/trending?slot=morning", "", 200},
		{"stats ok", "GET", "/v1/stats", "", 200},
		{"healthz ok", "GET", "/v1/healthz", "", 200},
		{"healthz wrong method", "POST", "/v1/healthz", "", 405},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			if resp.StatusCode == http.StatusInternalServerError {
				t.Fatalf("%s %s: generic 500 leaked", tc.method, tc.path)
			}
		})
	}
}

// TestOversizedBodyRejected maps a body over the configured cap to 413.
func TestOversizedBodyRejected(t *testing.T) {
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, WithMaxBodyBytes(128)).Handler())
	defer ts.Close()

	big := `{"handle":"` + strings.Repeat("x", 1024) + `"}`
	resp, err := http.Post(ts.URL+"/v1/users", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}
